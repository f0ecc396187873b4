package trace

import (
	"bytes"
	"strings"
	"testing"

	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// The path recorder must survive network forks: monitors that do not
// implement CloneableMonitor are silently dropped from the copy.
var _ sim.CloneableMonitor = (*PathMonitor)(nil)

// TestMonitorsSurviveClone is the regression test for the silent-drop
// bug: attach the path recorder, fork the network, and require the fork
// to keep observing while leaving the original's records untouched.
func TestMonitorsSurviveClone(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	rc := router.Default(mesh)
	n := sim.MustNew(sim.Config{Router: rc, InjectionRate: 0.2, Seed: 7}, nil)
	pm := NewPathMonitor()
	n.AttachMonitor(pm)
	n.Run(200)
	atFork := len(pm.Packets())
	if atFork == 0 {
		t.Fatal("no packets after 200 loaded cycles; test premise broken")
	}

	c := n.Clone(nil)
	if got := len(c.Monitors()); got != 1 {
		t.Fatalf("clone carried %d monitors, want 1", got)
	}
	cpm, ok := c.Monitors()[0].(*PathMonitor)
	if !ok {
		t.Fatalf("clone's monitor has the wrong type: %T", c.Monitors()[0])
	}
	if cpm == pm {
		t.Fatal("clone shares the monitor instance with the original")
	}
	if len(cpm.Packets()) != atFork {
		t.Fatalf("clone's recorder starts with %d packets, want the fork-point %d", len(cpm.Packets()), atFork)
	}

	// Only the clone advances: its record grows, the original's does not.
	c.Run(200)
	if len(cpm.Packets()) <= atFork {
		t.Fatal("clone's PathMonitor stopped observing after the fork")
	}
	if len(pm.Packets()) != atFork {
		t.Fatalf("running the clone mutated the original's record (%d != %d)", len(pm.Packets()), atFork)
	}

	// Clone paths validate hop by hop, like the original's.
	for _, id := range cpm.Packets() {
		hops := cpm.Path(id)
		if len(hops) == 0 || hops[len(hops)-1].OutPort != topology.Local {
			continue // in flight at snapshot time
		}
		src := hops[0].Router
		dest := hops[len(hops)-1].Router
		if err := ValidatePath(mesh, hops, src, dest); err != nil {
			t.Fatalf("clone recorded invalid path for packet %d: %v", id, err)
		}
	}
}

// TestRunWriterRoundTrip streams records through the NDJSON writer and
// reads them back.
func TestRunWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewRunWriter(&buf)
	recs := []RunRecord{
		{Index: 2, Router: 5, Signal: "sa1_gnt", Port: 1, VC: -1, Bit: 3,
			FaultType: "transient", Cycle: 100, Fired: true, Drained: true,
			Malicious: false, Outcome: "FP", Latency: 0, CautiousOutcome: "FP",
			CautiousLatency: 0, ForeverOutcome: "TN", ForeverLatency: -1,
			WallSeconds: 0.012},
		{Index: 0, Router: 1, Signal: "rc_in_dest_x", Port: 0, VC: -1, Bit: 0,
			FaultType: "transient", Cycle: 100, FastPath: true,
			Outcome: "TN", Latency: -1, CautiousOutcome: "TN", CautiousLatency: -1,
			ForeverOutcome: "TN", ForeverLatency: -1, WallSeconds: 0.0004},
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 2 {
		t.Fatalf("Records() = %d, want 2", w.Records())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Fatalf("NDJSON output has %d lines, want 2:\n%s", lines, buf.String())
	}

	got, err := DecodeTolerant[RunRecord](bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records, want 2", len(got))
	}
	for i := range recs {
		// RunRecord now carries slices; compare canonical bytes plus the
		// one field canonicalization drops.
		if !bytes.Equal(got[i].CanonicalBytes(), recs[i].CanonicalBytes()) ||
			got[i].WallSeconds != recs[i].WallSeconds {
			t.Fatalf("record %d round-trip mismatch:\ngot  %+v\nwant %+v", i, got[i], recs[i])
		}
	}
}

// TestReadRunRecordsTruncated: a torn final line of a run trace
// (interrupted campaign) must yield the complete prefix without an error.
func TestReadRunRecordsTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewRunWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := w.Write(&RunRecord{Index: i, Outcome: "TN"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	torn := buf.String() + `{"index":3,"nocalert_ou`
	got, err := DecodeTolerant[RunRecord](strings.NewReader(torn))
	if err != nil {
		t.Fatalf("truncated trace returned error %v, want nil", err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d records from truncated trace, want 3", len(got))
	}
}
