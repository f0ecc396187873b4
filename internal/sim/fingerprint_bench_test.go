package sim

import (
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/router"
	"nocalert/internal/topology"
)

// benchStep measures the per-cycle cost of stepping a warmed network,
// optionally folding the full state fingerprint each cycle — the
// worst-case fingerprint duty cycle, paid only by the golden run's
// timeline recording. Faulty runs amortize the hash behind a counter
// precheck and exponential backoff, so their per-cycle overhead is a
// small fraction of the PlusFP - Only gap shown here.
func benchStep(b *testing.B, w, h int, rate float64, fp bool) {
	mesh := topology.NewMesh(w, h)
	n, err := New(Config{Router: router.Default(mesh), InjectionRate: rate, Seed: 3}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for n.Cycle() < 300 {
		n.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
		if fp {
			_ = n.Fingerprint()
		}
	}
}

func BenchmarkStepOnly4x4(b *testing.B)   { benchStep(b, 4, 4, 0.12, false) }
func BenchmarkStepPlusFP4x4(b *testing.B) { benchStep(b, 4, 4, 0.12, true) }
func BenchmarkStepOnly8x8(b *testing.B)   { benchStep(b, 8, 8, 0.05, false) }
func BenchmarkStepPlusFP8x8(b *testing.B) { benchStep(b, 8, 8, 0.05, true) }

// BenchmarkGoldenSnapshot measures the cost of capturing one golden
// ring entry: a full-state CloneInto of a warmed network into a fresh
// arena — the per-snapshot price the campaign pays during its single
// golden mainline run.
func benchGoldenSnapshot(b *testing.B, w, h int, rate float64) {
	mesh := topology.NewMesh(w, h)
	n, err := New(Config{Router: router.Default(mesh), InjectionRate: rate, Seed: 3}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for n.Cycle() < 300 {
		n.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.CloneInto(nil, nil)
	}
}

func BenchmarkGoldenSnapshot4x4(b *testing.B) { benchGoldenSnapshot(b, 4, 4, 0.12) }
func BenchmarkGoldenSnapshot8x8(b *testing.B) { benchGoldenSnapshot(b, 8, 8, 0.05) }

// BenchmarkForkedRun measures restoring a snapshot into a reusable
// worker arena and replaying a short gap — the whole warm-start price
// of one forked faulty run, to set against the snapshot.cycle stepped
// cycles it skips.
func benchForkedRun(b *testing.B, w, h int, rate float64, replay int64) {
	mesh := topology.NewMesh(w, h)
	n, err := New(Config{Router: router.Default(mesh), InjectionRate: rate, Seed: 3}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for n.Cycle() < 300 {
		n.Step()
	}
	snap := n.CloneInto(nil, nil)
	var arena *Network
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena = snap.CloneInto(arena, nil)
		for c := snap.Cycle() + replay; arena.Cycle() < c; {
			arena.Step()
		}
	}
}

func BenchmarkForkedRun4x4(b *testing.B) { benchForkedRun(b, 4, 4, 0.12, 8) }
func BenchmarkForkedRun8x8(b *testing.B) { benchForkedRun(b, 8, 8, 0.05, 8) }

// benchFrontierStep measures a frontier cycle at equal cone size on
// different meshes: the same fault (a VA2 grant bit of router 3's local
// port, which keeps a cone of about two routers alive through the whole
// window) struck on a warmed mesh, its 500-cycle window stepped by a
// reset frontier over the golden transcript. ns/member-step divides by
// the members actually stepped, so meshes compare at equal cone; a cycle
// that cost the mesh would show here as a 16×16 figure several times the
// 8×8 one.
func benchFrontierStep(b *testing.B, w, h int, rate float64) {
	const warm, window = 300, 500
	mesh := topology.NewMesh(w, h)
	cfg := Config{Router: router.Default(mesh), InjectionRate: rate, Seed: 3}
	base := MustNew(cfg, nil)
	base.Run(warm)
	cont := base.Clone(nil)
	cont.StartRecording(window)
	cont.Run(window)
	rec := cont.StopRecording()
	ft := fault.Fault{Cycle: warm, Type: fault.Transient}
	for _, s := range (fault.Params{Mesh: mesh, VCs: cfg.Router.VCs, BufDepth: cfg.Router.BufDepth}).EnumerateSites() {
		if s.Router == 3 && s.Kind == fault.VA2Gnt && s.Port == int(topology.Local) {
			ft.Site = s
		}
	}
	var n *Network
	fr := &Frontier{}
	members := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer() // the fork is the mesh's cost, not the cone's
		n = base.CloneInto(n, fault.NewPlane(ft))
		b.StartTimer()
		fr.Reset(n, rec, []int{ft.Site.Router})
		for c := 0; c < window; c++ {
			fr.Step()
			members += fr.Size()
		}
	}
	if members == 0 {
		b.Fatal("the fault left no cone to step")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(members), "ns/member-step")
	b.ReportMetric(float64(members)/float64(b.N*window), "members")
}

func BenchmarkFrontierStep8x8(b *testing.B)   { benchFrontierStep(b, 8, 8, 0.05) }
func BenchmarkFrontierStep16x16(b *testing.B) { benchFrontierStep(b, 16, 16, 0.02) }
