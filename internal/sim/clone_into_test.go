package sim

import (
	"reflect"
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/router"
	"nocalert/internal/topology"
)

// ejRecord is an ejection with the flit flattened to a value, so logs
// from different clones compare by content rather than pointer.
type ejRecord struct {
	node  int
	cycle int64
	pkt   uint64
	seq   int
}

func runAndRecord(n *Network, cycles int64) []ejRecord {
	n.Run(cycles)
	out := make([]ejRecord, 0, len(n.Ejections()))
	for _, e := range n.Ejections() {
		out = append(out, ejRecord{node: e.Node, cycle: e.Cycle, pkt: e.Flit.PacketID, seq: e.Flit.Seq})
	}
	return out
}

// TestCloneIntoMatchesClone forks a warmed, loaded network with both
// Clone and CloneInto and checks that the copies carry identical
// architectural state and behave identically for hundreds of cycles.
func TestCloneIntoMatchesClone(t *testing.T) {
	base := MustNew(cfg44(0.2, 9), nil)
	base.Run(300)

	ref := base.Clone(nil)
	reuse := base.CloneInto(nil, nil)

	// State equivalence at the fork point: routers and NIs must be
	// deep-equal between the two clone paths (the ejection log is the
	// one documented difference — CloneInto starts it empty).
	for i := range ref.routers {
		if !reflect.DeepEqual(ref.routers[i], reuse.routers[i]) {
			t.Fatalf("router %d state differs between Clone and CloneInto", i)
		}
	}
	for i := range ref.nis {
		if !reflect.DeepEqual(ref.nis[i], reuse.nis[i]) {
			t.Fatalf("NI %d state differs between Clone and CloneInto", i)
		}
	}
	if len(reuse.Ejections()) != 0 {
		t.Fatalf("CloneInto must start with an empty ejection log, got %d entries", len(reuse.Ejections()))
	}

	// Behavioral equivalence: both clones must eject exactly the same
	// flits at the same nodes and cycles.
	before := len(ref.Ejections())
	refLog := runAndRecord(ref, 400)[before:]
	reuseLog := runAndRecord(reuse, 400)
	if !reflect.DeepEqual(refLog, reuseLog) {
		t.Fatalf("post-fork ejections diverge: Clone %d entries, CloneInto %d entries", len(refLog), len(reuseLog))
	}
	if ref.Cycle() != reuse.Cycle() || ref.InFlight() != reuse.InFlight() {
		t.Fatalf("cycle/in-flight diverge: (%d,%d) vs (%d,%d)",
			ref.Cycle(), ref.InFlight(), reuse.Cycle(), reuse.InFlight())
	}
}

// TestCloneIntoReuseAcrossForks dirties a CloneInto target with one
// run, re-forks into the same storage, and checks the second fork is
// indistinguishable from a fresh clone — the invariant campaign
// workers rely on when recycling one network across thousands of runs.
func TestCloneIntoReuseAcrossForks(t *testing.T) {
	base := MustNew(cfg44(0.2, 11), nil)
	base.Run(300)

	arena := base.CloneInto(nil, nil)
	runAndRecord(arena, 500) // dirty the reusable clone

	arena = base.CloneInto(arena, nil)
	gotLog := runAndRecord(arena, 400)

	fresh := base.Clone(nil)
	before := len(fresh.Ejections())
	wantLog := runAndRecord(fresh, 400)[before:]

	if !reflect.DeepEqual(gotLog, wantLog) {
		t.Fatalf("re-forked clone diverges from fresh clone: %d vs %d entries", len(gotLog), len(wantLog))
	}
	if arena.Cycle() != fresh.Cycle() || arena.InFlight() != fresh.InFlight() {
		t.Fatalf("cycle/in-flight diverge after re-fork: (%d,%d) vs (%d,%d)",
			arena.Cycle(), arena.InFlight(), fresh.Cycle(), fresh.InFlight())
	}
}

// TestLazyForkCopiesItsCone forks a warmed 8×8 network short of its nodes
// (CloneLazyInto) into a target that holds another traffic process's
// state, and steps a fault's window on a frontier over the fork. The
// frontier must have copied exactly the nodes it ever tracked — each of
// them once, a node that retired and rejoined included — and written no
// other: every untracked node of the target still holds the junk's
// registers and traffic generator. The fork refuses to be stepped as a whole network; after
// MaterializeAll it is one, and steps on fingerprint-identical to a run
// that cloned the mesh at the fork.
func TestLazyForkCopiesItsCone(t *testing.T) {
	const warm, window = 300, 500
	mesh := topology.NewMesh(8, 8)
	cfg := Config{Router: router.Default(mesh), InjectionRate: 0.05, Seed: 3}
	base := MustNew(cfg, nil)
	base.Run(warm)
	cont := base.Clone(nil)
	cont.StartRecording(window)
	cont.Run(window)
	rec := cont.StopRecording()

	ft := fault.Fault{Cycle: warm, Type: fault.Transient}
	for _, s := range (fault.Params{Mesh: mesh, VCs: cfg.Router.VCs, BufDepth: cfg.Router.BufDepth}).EnumerateSites() {
		if s.Router == 3 && s.Kind == fault.VA2Gnt && s.Port == int(topology.Local) {
			ft.Site = s // benchFrontierStep's fault: a cone of about two routers, all window long
		}
	}
	junk := junkNetwork(cfg)
	n := base.CloneLazyInto(junk.CloneInto(nil, nil), fault.NewPlane(ft))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Network.Step on a fork that has yet to be given its nodes did not panic")
			}
		}()
		n.Step()
	}()

	fr := NewFrontier(n, rec, []int{ft.Site.Router})
	for c := 0; c < window; c++ {
		fr.Step()
	}
	if fr.Copied() != len(fr.tracked) || fr.Copied() < 2 || fr.Copied() >= mesh.Nodes()/2 {
		t.Fatalf("the frontier copied %d nodes and tracked %d (%v): want the same, a small cone's worth", fr.Copied(), len(fr.tracked), fr.tracked)
	}
	// (By its traffic generator and its registers: the flits a stale node
	// points to are the recycled arena's, and anyone's by now.)
	for i := range n.routers {
		stale := *n.nis[i].gen == *junk.nis[i].gen && reflect.DeepEqual(n.st.View(i), junk.st.View(i))
		if stale == fr.isTracked[i] {
			t.Errorf("node %d: tracked %t, still holding the target's stale state %t", i, fr.isTracked[i], stale)
		}
	}

	ref := base.CloneInto(nil, fault.NewPlane(ft))
	ref.Run(window)
	fr.MaterializeAll(cont)
	if n.origin != nil || fr.Copied() < mesh.Nodes() {
		t.Fatalf("after MaterializeAll the network still owes nodes to its fork point (%t), %d copied in all", n.origin != nil, fr.Copied())
	}
	for c := 0; c < 200; c++ {
		if got, want := n.Fingerprint(), ref.Fingerprint(); got != want {
			t.Fatalf("cycle %d: the materialized fork's fingerprint %#x, a cloned mesh's %#x", n.Cycle(), got, want)
		}
		n.Step()
		ref.Step()
	}
}
