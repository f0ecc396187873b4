package campaign

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"nocalert/internal/forever"
	"nocalert/internal/golden"
	"nocalert/internal/obs"
	"nocalert/internal/rng"
	"nocalert/internal/topology"
	"nocalert/internal/trace"
	"nocalert/internal/traffic"
)

// TestFastPathIsTheReference holds every run of a multi-cycle transient
// universe whose faults expired without firing to two statements: it
// leaves the frontier by the reconvergence exit (nothing diverged, so the
// frontier empties), and its record — the tail synthesized from its own
// engine and the golden ForEVeR record — is the full-simulation reference
// run's of the same group: runSlow, through fork, window, drain, horizon
// and verdict, every cycle stepped. Every field must agree, by default and
// with a ForEVeR epoch short enough that the golden monitor flags (so the
// unfired run's ForEVeR answer comes from the recorded golden tail), at
// every injection cycle.
func TestFastPathIsTheReference(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	for _, tc := range []struct {
		name  string
		epoch int64
	}{
		{"default", 300},
		{"epoch-20", 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cycles := []int64{0, 150, 650}
			opts := multiCycleOptions(topology.NewMesh(4, 4), 96, 7, cycles, 200, 2500, tc.epoch)
			o, err := opts.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			gold := builtGolden(t, &o)
			var fast, slow worker
			hits := map[int64]int{}
			flagged := 0
			for i, group := range o.FaultGroups {
				c := group[0].Cycle
				gc := gold.groups[c].gc
				rec, exit, _, _ := runOne(&fast, gc, o, group, nil)
				if rec.Fired {
					continue
				}
				hits[c]++
				if exit != ExitReconverged {
					t.Errorf("run %d (%v): faults never fired, but the run exits %v", i, &group[0], exit)
				}
				var st runStats
				if want := runSlow(&slow, gc, o, group, &st, nil); !reflect.DeepEqual(rec, want) || st.verdict != (golden.Verdict{}) {
					t.Errorf("run %d (%v): the unfired frontier run gives\n %+v\nthe reference run\n %+v, verdict %+v", i, &group[0], rec, want, st.verdict)
				}
				if rec.ForeverOutcome.Detected() {
					flagged++
				}
			}
			for _, c := range cycles {
				if hits[c] == 0 {
					t.Errorf("injection cycle %d: every fault fired: the test checks nothing there", c)
				}
				if n := len(gold.groups[c].gc.gfv.Detections()); tc.epoch == 20 && (n == 0 || n >= forever.DetectionCap) {
					t.Errorf("injection cycle %d: golden monitor flagged %d times: want a flagging golden under the detection cap", c, n)
				}
			}
			if tc.epoch == 20 && flagged == 0 {
				t.Error("no unfired run's result carries a ForEVeR flag under a flagging golden")
			}
		})
	}
}

// TestWarmupPhaseSpans: under the golden-warmup span the mainline spans
// tile [0, split cycle of the last injection cycle] — the last one is the
// quiet run-ahead into the split window — and every injection cycle has a
// group span holding its window spans, which tile the post-injection
// window (two segments for the last injection cycle, one for the others),
// and settle-horizon after the window's last segment, all inside the
// group's. Chains of different cycles, the mainline and a split window's
// two segments overlap each other, so no sum of children is held to the
// parent; the parent ends with the last group and says when the first was
// out. A golden whose ForEVeR monitor filled its detection list (an epoch
// far too short) is unsound at every injection cycle: its runs take the
// reference path and exit ExitFull.
func TestWarmupPhaseSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cycles := []int64{0, 150, 650}
	const post = 200
	last := cycles[len(cycles)-1]
	split := splitAt(last, post)
	if split <= last || split >= last+post {
		t.Fatalf("split cycle %d is not inside the last window [%d, %d)", split, last, last+post)
	}
	opts := multiCycleOptions(topology.NewMesh(4, 4), 6, 7, cycles, post, 2500, 300)
	_, spans := tracedRun(t, opts)
	var warm obs.SpanRecord
	for _, s := range spans {
		if s.Kind == "phase" && s.Name == "golden-warmup" {
			warm = s
		}
	}
	if warm.SpanID == "" {
		t.Fatal("no golden-warmup span in the stream")
	}
	if ms, ok := warm.Attrs["first_group_ms"].(float64); !ok || ms <= 0 || ms > float64(warm.Duration().Milliseconds())+1 {
		t.Errorf("golden-warmup first_group_ms = %v over a span of %v", warm.Attrs["first_group_ms"], warm.Duration())
	}
	groups := map[int64]obs.SpanRecord{}
	at := int64(0) // where the mainline spans have tiled to
	for _, s := range spans {
		if s.ParentID != warm.SpanID {
			continue
		}
		switch s.Name {
		case "mainline":
			from, _ := s.Int("from_cycle")
			to, ok := s.Int("to_cycle")
			if !ok || from != at || to < from {
				t.Errorf("mainline span covers cycles [%d, %d], the one before ended at %d", from, to, at)
			}
			at = to
		case "group":
			c, _ := s.Int("inject_cycle")
			groups[c] = s
			if s.EndNano > warm.EndNano {
				t.Errorf("group of injection cycle %d ends after the golden-warmup span", c)
			}
		default:
			t.Errorf("golden-warmup has a child %s %q: want mainline and group spans only", s.Kind, s.Name)
		}
	}
	if at != split {
		t.Errorf("mainline spans tile [0, %d], the last injection cycle's split cycle is %d", at, split)
	}
	if len(groups) != len(cycles) {
		t.Fatalf("%d group spans, want one per injection cycle", len(groups))
	}
	for _, c := range cycles {
		g := groups[c]
		var windows []obs.SpanRecord
		phases := map[string]obs.SpanRecord{}
		for _, s := range spans {
			if s.ParentID != g.SpanID {
				continue
			}
			if ic, ok := s.Int("inject_cycle"); !ok || ic != c {
				t.Errorf("%s under the group of injection cycle %d carries inject_cycle %d (present %t)", s.Name, c, ic, ok)
			}
			if s.StartNano < g.StartNano || s.EndNano > g.EndNano {
				t.Errorf("injection cycle %d: %s is not inside the group span", c, s.Name)
			}
			if s.Name == "window" {
				windows = append(windows, s)
			} else if _, dup := phases[s.Name]; dup {
				t.Errorf("injection cycle %d: two %s spans", c, s.Name)
			} else {
				phases[s.Name] = s
			}
		}
		sort.Slice(windows, func(i, j int) bool {
			a, _ := windows[i].Int("from_cycle")
			b, _ := windows[j].Int("from_cycle")
			return a < b
		})
		want, to := []int64{c, c + post}, c
		if c == last {
			want = []int64{c, split, c + post}
		}
		var got []int64
		for _, w := range windows {
			from, _ := w.Int("from_cycle")
			to, _ = w.Int("to_cycle")
			got = append(got, from)
		}
		if got = append(got, to); !reflect.DeepEqual(got, want) {
			t.Errorf("injection cycle %d: window spans start at and end %v, want %v", c, got, want)
		}
		sh := phases["settle-horizon"]
		if len(phases) != 1 || sh.SpanID == "" {
			t.Errorf("injection cycle %d: group span holds %v besides its windows, want settle-horizon", c, phases)
			continue
		}
		if len(windows) > 0 && sh.StartNano < windows[len(windows)-1].EndNano {
			t.Errorf("injection cycle %d: settle-horizon does not follow the window's last segment", c)
		}
	}

	opts.Forever.Epoch = 4 // nothing is delivered in four cycles: every node flags at every boundary
	o, err := opts.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	gold := builtGolden(t, &o)
	for _, c := range cycles {
		if gc := gold.groups[c].gc; gc.rec != nil || len(gc.gfv.Detections()) < forever.DetectionCap {
			t.Errorf("injection cycle %d: golden with %d ForEVeR detections kept its shortcuts", c, len(gc.gfv.Detections()))
		}
	}
	opts.OnResult = func(rec *trace.RunRecord, exit ExitPath) {
		if exit != ExitFull {
			t.Errorf("run %d over an unsound golden exits %v, want full", rec.Index, exit)
		}
	}
	if rep := mustRun(t, opts); rep.FrontierRuns != 0 {
		t.Errorf("%d frontier runs over an unsound golden, want 0", rep.FrontierRuns)
	}
}

// TestSplitWindowIsInvisible: where the last injection cycle's window is
// split does not show in anything the golden artefact holds or a campaign
// reports. The artefact built with the seam one cycle into the window, in
// its middle, at the default fraction and one cycle before its end equals
// the one built as a single chain (no split) at every injection cycle:
// the whole transcript (every array and prefix offset, the fold and busy
// rows, injectEnd, settled and the node-major indices), the golden log,
// the ForEVeR monitor (history and detections) and the fork fingerprint;
// and so do the campaign's report bytes. The epoch-20 campaign's golden
// monitor flags on both sides of every seam.
func TestSplitWindowIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	for _, tc := range []struct {
		name   string
		mesh   topology.Mesh
		cycles []int64
		epoch  int64
	}{
		{"4x4", topology.NewMesh(4, 4), []int64{150, 650}, 300},
		{"4x4-epoch20", topology.NewMesh(4, 4), []int64{650}, 20},
		{"8x8", topology.NewMesh(8, 8), []int64{300}, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const post = 200
			opts := multiCycleOptions(tc.mesh, 24, 5, tc.cycles, post, 2500, tc.epoch)
			o, err := opts.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			defer func(at func(c, post int64) int64) { splitAt = at }(splitAt)
			build := func(at func(c, post int64) int64) (*Golden, []byte) {
				splitAt = at
				return builtGolden(t, &o), reportBytes(t, mustRun(t, opts))
			}
			whole, wantReport := build(func(c, _ int64) int64 { return c })
			last := tc.cycles[len(tc.cycles)-1]
			if tc.epoch == 20 {
				d := whole.groups[last].gc.gfv.Detections()
				if len(d) == 0 || d[0] > last || d[len(d)-1] < last+post-1 {
					t.Fatalf("golden monitor flags at %v: want flags before every seam in the window and after it", d)
				}
			}
			for _, at := range []int64{last + 1, last + post/2, splitAt(last, post), last + post - 1} {
				gold, report := build(func(c, _ int64) int64 { return at })
				for _, c := range tc.cycles {
					a, b := whole.groups[c].gc, gold.groups[c].gc
					for _, f := range []struct {
						name string
						x, y any
					}{
						{"transcript", a.rec, b.rec},
						{"golden log", a.goldenLog, b.goldenLog},
						{"ForEVeR monitor", a.gfv, b.gfv},
						{"fork fingerprint", a.forkFP, b.forkFP},
					} {
						if !reflect.DeepEqual(f.x, f.y) {
							t.Errorf("split at %d, injection cycle %d: the %s differs from the single chain's", at, c, f.name)
						}
					}
					if a.rec == nil {
						t.Errorf("injection cycle %d: no transcript to compare", c)
					}
				}
				if !bytes.Equal(report, wantReport) {
					t.Errorf("split at %d: the report differs from the single chain's", at)
				}
			}
		})
	}
}

// cloneShyPattern is a traffic pattern that sends a packet one node past
// its uniform destination when the network drawing it is not the first it
// served (it tells networks apart by their NIs' generators): a clone that
// shares it does not step as the network it was cloned from would.
type cloneShyPattern struct {
	traffic.Uniform
	mu    sync.Mutex
	first map[int]*rng.PCG
}

func (p *cloneShyPattern) Dest(m topology.Mesh, src int, g *rng.PCG) int {
	d := p.Uniform.Dest(m, src, g)
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.first[src]; !ok {
		p.first[src] = g
	} else if f != g {
		if d = (d + 1) % m.Nodes(); d == src {
			d = (d + 1) % m.Nodes()
		}
	}
	return d
}

// TestSplitSeamMismatchFails: when the two segments of the split window
// disagree at the seam — here because the traffic pattern the builder's
// clone and the mainline share answers the clone differently — the campaign
// fails with an error naming the injection and split cycles, as it does
// on a fork that diverged, instead of joining them.
func TestSplitSeamMismatchFails(t *testing.T) {
	opts := multiCycleOptions(topology.NewMesh(4, 4), 8, 3, []int64{300}, 200, 2500, 300)
	opts.Sim.Pattern = &cloneShyPattern{first: map[int]*rng.PCG{}}
	_, err := Run(opts)
	if err == nil {
		t.Fatal("a campaign whose golden window segments disagree at the seam succeeded")
	}
	if want := fmt.Sprintf("injection cycle 300 disagree at split cycle %d", splitAt(300, 200)); !strings.Contains(err.Error(), want) {
		t.Errorf("seam error %q does not name %q", err, want)
	}
}
