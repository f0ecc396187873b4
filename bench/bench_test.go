package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON is the committed manifest the acceptance driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) (benchmarkJSON, []byte) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m benchmarkJSON
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m, raw
}

// TestManifest holds BENCHMARK.json to the harness's own tables and to
// the limits the acceptance driver refuses a file over.
func TestManifest(t *testing.T) {
	m, raw := readBenchmarkJSON(t)
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	direction := func(n, better string) {
		if better != "higher" && better != "lower" {
			t.Errorf("%s: better is %q", n, better)
		}
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	maxBound, setupBound := 0.0, -1.0
	for _, e := range m.EndToEnd {
		name(e.Name)
		direction(e.Name, e.Better)
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: unit %q", e.Name, e.Unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
		maxBound = max(maxBound, e.Bound)
		if e.Name == "setup_s" {
			setupBound = e.Bound
			if e.Unit != "s" || e.Better != "lower" {
				t.Errorf("setup_s must be in s and lower-is-better, got %q %q", e.Unit, e.Better)
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", len(m.PerLayer))
	}
	for _, l := range m.PerLayer {
		name(l.Name)
		direction(l.Name, l.Better)
		if !unitRE.MatchString(l.Unit) {
			t.Errorf("%s: unit %q", l.Name, l.Unit)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths %q", m.Paths)
	}
}

// TestReadmeTables holds README.md's metric tables to the definitions in
// metrics.go: one row per metric, with its unit, direction, bound or
// source, and prediction.
func TestReadmeTables(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, d := range endToEnd {
		bound := fmt.Sprintf("%g %%", 100*d.Bound)
		if d.Bound == 0 {
			bound = "0 (absolute)"
		}
		rows = append(rows, fmt.Sprintf("| `%s` | %s | %s | %s | %s |", d.Name, d.Unit, d.Better, bound, d.Moves))
	}
	for _, d := range perLayer {
		source, name := d.Source, "`"+d.Name+"`"
		if d.Exact {
			source += ", exact"
		}
		if d.SuiteOnly {
			name += " (suite only)"
		}
		layer, _, _ := strings.Cut(d.Name, ".")
		rows = append(rows, fmt.Sprintf("| %s | %s | %s | %s | %s | %s |", layer, name, d.Unit, d.Better, source, d.Moves))
	}
	for _, row := range rows {
		if !bytes.Contains(readme, []byte(row+"\n")) {
			t.Errorf("README.md lacks the row\n%s", row)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at 1/64 scale
// in-process and checks the driver's result line carries each metric
// BENCHMARK.json names exactly once, with a unit, and nothing else. To
// keep tier-1 short the one traced repetition also stands in for the
// timed one (no value is asserted; agreement between repetitions is
// TestCorrectnessGate's job). The 64-fault 8x8 run doubles as the tie to
// the repository's identity fixtures.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	m, _ := readBenchmarkJSON(t)
	units := map[string]string{}
	for _, e := range m.EndToEnd {
		units[e.Name] = e.Unit
	}
	for _, l := range m.PerLayer {
		units[l.Name] = l.Unit
	}
	fixture, err := os.ReadFile("../testdata/report_8x8_seed3.json")
	if err != nil {
		t.Fatal(err)
	}
	fixtureSum := sha256.Sum256(fixture)
	pins, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	p := plan{Seed: 3, Scale: testScale, Seeds: 1, Passes: 1, Traced: true, TmpBase: t.TempDir()}
	for _, w := range workloads() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel() // nothing here asserts a time
			var traced *sample
			once := func(cfg repConfig) (*sample, error) {
				if traced == nil {
					cfg.Traced = true
					var err error
					if traced, err = runRep(cfg); err != nil {
						return nil, err
					}
				}
				return traced, nil
			}
			res, err := measureWorkload(w, p, once, pins)
			if err != nil {
				t.Fatal(err)
			}
			if res.Absent != "" {
				if w.absent() == "" {
					t.Fatalf("reported absent (%s) on a machine that can run it", res.Absent)
				}
				t.Skipf("absent: %s", res.Absent)
			}
			if res.Failed != 0 {
				t.Errorf("%d of %d runs failed verification: %v", res.Failed, res.Attempted, res.Notes)
			}
			if _, ok := pins.lookup(3, w.Name, res.N); !ok {
				t.Errorf("expected.json has no pin for %s", pinKey(w.Name, res.N))
			}
			var line bytes.Buffer
			if err := writeContractLine(&line, &res, -1); err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(&line)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || got.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d", got.Correct, got.Attempted)
			}
			for name, unit := range units {
				v, ok := got.Metrics[name]
				switch {
				case !ok:
					t.Errorf("metric %s missing", name)
				case v.Value == nil || v.Unit != unit:
					t.Errorf("metric %s: value %v unit %q, want unit %q", name, v.Value, v.Unit, unit)
				}
			}
			for name := range got.Metrics {
				if _, ok := units[name]; !ok {
					t.Errorf("metric %s emitted but not in BENCHMARK.json", name)
				}
				if !nameRE.MatchString(name) {
					t.Errorf("metric name %q", name)
				}
			}
			if w.Name == "w8x8_marginal" && res.Digest != hex.EncodeToString(fixtureSum[:]) {
				t.Errorf("64-fault 8x8 report digest %s does not reproduce testdata/report_8x8_seed3.json", res.Digest)
			}
		})
	}
}

// TestCorrectnessGate drives measureWorkload with canned samples: a
// digest that moves between repetitions, a digest off its pin, and a
// repetition's own failures must all land in the failed count.
func TestCorrectnessGate(t *testing.T) {
	w, err := findWorkload("w4x4_window")
	if err != nil {
		t.Fatal(err)
	}
	canned := func(digests ...string) runner {
		i := 0
		return func(cfg repConfig) (*sample, error) {
			s := &sample{N: 10, WallS: 1, SetupS: 0.1, T1S: 0.1, CPUS: 1, PeakRSSMB: 1, Digest: digests[i%len(digests)]}
			i++
			return s, nil
		}
	}
	p := plan{Seed: 3, Scale: 1, Seeds: 1, Passes: 3, TmpBase: t.TempDir()}
	pins := &expected{Seed: 3, SHA256: map[string]string{pinKey(w.Name, 10): "aa"}}

	res, err := measureWorkload(w, p, canned("aa"), pins)
	if err != nil || res.Failed != 0 || res.Attempted != 30 {
		t.Fatalf("clean run: failed=%d attempted=%d err=%v", res.Failed, res.Attempted, err)
	}
	if res, _ = measureWorkload(w, p, canned("aa", "bb", "aa"), pins); res.Failed != 10 {
		t.Errorf("moving digest: failed=%d, want 10", res.Failed)
	}
	if res, _ = measureWorkload(w, p, canned("cc"), pins); res.Failed != 30 {
		t.Errorf("digest off its pin: failed=%d, want 30", res.Failed)
	}
	p.Seed = 11 // no pin for other seeds: only agreement between repetitions
	if res, _ = measureWorkload(w, p, canned("cc"), pins); res.Failed != 0 {
		t.Errorf("unpinned seed: failed=%d, want 0", res.Failed)
	}
	// Two campaigns in two passes: each campaign has its own digest, and
	// only a digest that moves between a campaign's repetitions fails.
	perSeed := func(moving bool) runner {
		calls := 0
		return func(cfg repConfig) (*sample, error) {
			calls++
			s := &sample{N: 10, WallS: 1, Digest: fmt.Sprintf("digest-%d", cfg.Seed)}
			if moving && calls == 4 {
				s.Digest += "-moved"
			}
			return s, nil
		}
	}
	p.Seeds, p.Passes = 2, 2
	if res, _ = measureWorkload(w, p, perSeed(false), pins); res.Failed != 0 || res.Attempted != 40 {
		t.Errorf("two campaigns: failed=%d attempted=%d, want 0 of 40", res.Failed, res.Attempted)
	}
	if want := []uint64{11, campaignSeed(11, 1), 11, campaignSeed(11, 1)}; fmt.Sprint(res.RepSeeds) != fmt.Sprint(want) {
		t.Errorf("repetition seeds %v, want %v", res.RepSeeds, want)
	}
	if res, _ = measureWorkload(w, p, perSeed(true), pins); res.Failed != 10 {
		t.Errorf("digest moving within a campaign: failed=%d, want 10", res.Failed)
	}
	falseNeg := func(cfg repConfig) (*sample, error) {
		s := &sample{N: 10, WallS: 1, Digest: "aa"}
		s.fail(2, "2 NoCAlert false negatives")
		return s, nil
	}
	if res, _ = measureWorkload(w, plan{Seed: 3, Scale: 1, Seeds: 1, Passes: 1, TmpBase: t.TempDir()}, falseNeg, pins); res.Failed != 2 {
		t.Errorf("false negatives: failed=%d, want 2", res.Failed)
	}
}

// TestRunValue: the reported figure is, per campaign, the best of its
// repetitions in the metric's own direction, averaged over the campaigns.
func TestRunValue(t *testing.T) {
	r := workloadResult{
		RepSeeds: []uint64{3, 7, 3, 7},
		Samples:  map[string][]float64{"up": {100, 50, 90, 60}, "down": {2, 8, 4, 6}},
	}
	if got := r.value(metricDef{Name: "up", Better: "higher"}); got != 80 {
		t.Errorf("higher-is-better value = %g, want (100+60)/2", got)
	}
	if got := r.value(metricDef{Name: "down", Better: "lower"}); got != 4 {
		t.Errorf("lower-is-better value = %g, want (2+6)/2", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %g, %g", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	higher := metricDef{Better: "higher", Bound: 0.10}
	lower := metricDef{Better: "lower", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{higher, tight, []float64{103, 104, 102, 103, 103}, verdictUnchanged},
		{higher, tight, []float64{120, 121, 119, 120, 120}, verdictBetter},
		{higher, tight, []float64{80, 81, 79, 80, 80}, verdictWorse},
		{lower, tight, []float64{80, 81, 79, 80, 80}, verdictBetter},
		{lower, tight, []float64{120, 121, 119, 120, 120}, verdictWorse},
		// Spread wider than the bound: unresolved unless one side wins
		// every pairing.
		{higher, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, verdictUnresolved},
		{higher, []float64{80, 100, 120, 90, 110}, []float64{180, 200, 220, 190, 260}, verdictBetter},
		{lower, []float64{80, 100, 120, 90, 110}, []float64{180, 200, 220, 190, 260}, verdictWorse},
	}
	for i, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}
