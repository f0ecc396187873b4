package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// expectedPath is where -update-expected rewrites the pins, relative to
// the repository root the command runs from.
const expectedPath = "bench/expected.json"

//go:embed expected.json
var expectedJSON []byte

// expected pins, for one seed, the SHA-256 of Report.WriteJSON per
// workload and fault count ("w8x8_marginal@4096"). A repetition whose
// digest disagrees fails every run it judged. Other seeds have no pin;
// for them only agreement between repetitions is checked.
type expected struct {
	Seed   uint64            `json:"seed"`
	SHA256 map[string]string `json:"sha256"`
}

func pinKey(workload string, n int) string { return fmt.Sprintf("%s@%d", workload, n) }

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if e.SHA256 == nil {
		e.SHA256 = map[string]string{}
	}
	return &e, nil
}

func (e *expected) lookup(seed uint64, workload string, n int) (string, bool) {
	if e == nil || seed != e.Seed {
		return "", false
	}
	d, ok := e.SHA256[pinKey(workload, n)]
	return d, ok
}

// repin runs every workload once at each scale the harness measures at
// (the suite's, the acceptance driver's, the tests') and rewrites the
// file on disk with the digests. A workload this machine cannot run
// keeps its old pins.
func (e *expected) repin(tmpBase string) error {
	fresh := expected{Seed: e.Seed, SHA256: map[string]string{}}
	for _, scale := range []float64{1, contractScale, testScale} {
		for _, w := range workloads() {
			key := pinKey(w.Name, w.scaledN(scale))
			if w.absent() != "" {
				if old, ok := e.SHA256[key]; ok {
					fresh.SHA256[key] = old
				}
				continue
			}
			dir, err := repTmpDir(tmpBase)
			if err != nil {
				return err
			}
			s, err := runRep(repConfig{Workload: w.Name, Seed: e.Seed, Scale: scale, VerifyDirect: true,
				SpawnedAt: time.Now().UnixNano(), TmpDir: dir})
			os.RemoveAll(dir)
			if err != nil {
				return err
			}
			if s.Failed > 0 {
				return fmt.Errorf("%s: %d runs failed verification: %v", key, s.Failed, s.Notes)
			}
			fresh.SHA256[key] = s.Digest
		}
	}
	b, err := json.MarshalIndent(&fresh, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(b, '\n'), 0o644)
}
