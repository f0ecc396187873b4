package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"nocalert/internal/trace"
)

// Fixture is a committed per-fault classification snapshot: the spec
// that produced it plus one canonical record per fault. CI regenerates
// the records (sharded or not) and compares against the committed
// fixture, so any behavioural drift in the simulator, the checkers or
// the golden reference fails the gate on the exact fault that moved
// instead of being eyeballed out of aggregate percentages.
type Fixture struct {
	Spec    Spec              `json:"spec"`
	Records []trace.RunRecord `json:"records"`
}

// NewFixture canonicalizes records into a fixture: sorted by global
// index, wall times zeroed (the one legitimately nondeterministic
// field).
func NewFixture(spec Spec, recs []trace.RunRecord) *Fixture {
	canon := make([]trace.RunRecord, len(recs))
	for i := range recs {
		canon[i] = recs[i]
		canon[i].WallSeconds = 0
	}
	sort.Slice(canon, func(i, j int) bool { return canon[i].Index < canon[j].Index })
	return &Fixture{Spec: spec, Records: canon}
}

// ReadFixture parses a fixture.
func ReadFixture(r io.Reader) (*Fixture, error) {
	var f Fixture
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("campaign: bad fixture: %v", err)
	}
	return &f, nil
}

// Diff compares a regenerated fixture against the committed golden
// one, returning one message per divergence (nil when identical).
// Comparison is canonical-byte per record, so any verdict, outcome,
// latency or checker-attribution drift is caught fault by fault.
func (f *Fixture) Diff(got *Fixture) []string {
	var diffs []string
	if f.Spec.Hash() != got.Spec.Hash() {
		diffs = append(diffs, fmt.Sprintf("spec differs: golden %+v, got %+v", f.Spec, got.Spec))
	}
	if len(f.Records) != len(got.Records) {
		diffs = append(diffs, fmt.Sprintf("record count differs: golden %d, got %d", len(f.Records), len(got.Records)))
	}
	n := len(f.Records)
	if len(got.Records) < n {
		n = len(got.Records)
	}
	for i := 0; i < n; i++ {
		w, g := f.Records[i].CanonicalBytes(), got.Records[i].CanonicalBytes()
		if !bytes.Equal(w, g) {
			diffs = append(diffs, fmt.Sprintf("fault %d (%s.p%d.bit%d @r%d) drifted:\n  golden: %s\n  got:    %s",
				f.Records[i].Index, f.Records[i].Signal, f.Records[i].Port, f.Records[i].Bit,
				f.Records[i].Router, w, g))
			if len(diffs) >= 12 {
				diffs = append(diffs, "... further diffs suppressed")
				break
			}
		}
	}
	return diffs
}
