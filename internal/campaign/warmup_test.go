package campaign

import (
	"reflect"
	"testing"

	"nocalert/internal/forever"
	"nocalert/internal/obs"
	"nocalert/internal/topology"
)

// warmupSpans runs the campaign traced and returns the golden-warmup span
// with its child phase spans, in the order they ended.
func warmupSpans(t *testing.T, o Options) (warm obs.SpanRecord, children []obs.SpanRecord) {
	t.Helper()
	_, spans := tracedRun(t, o)
	for _, s := range spans {
		if s.Kind == "phase" && s.Name == "golden-warmup" {
			warm = s
		}
	}
	if warm.SpanID == "" {
		t.Fatal("no golden-warmup span in the stream")
	}
	for _, s := range spans {
		if s.ParentID == warm.SpanID {
			children = append(children, s)
		}
	}
	return warm, children
}

// TestTemplateFromContinuation holds the fault-free template the golden
// warm-up assembles from the continuation it steps anyway to the one it
// used to get by simulating the run a second time: runSlow with an empty
// fault plane, through fork, window, drain, horizon and verdict. Every
// field must agree, under each switch that changes how either side steps
// (no ForEVeR: no horizon, and the continuation settles its transcript
// past the template's last cycle; no frontier: no transcript; no
// fast-forward: the second run steps its whole horizon too; no fork, or a
// coarse snapshot interval: the fork replays a gap; a ForEVeR epoch short
// enough that the golden monitor flags, whose first flag the template then
// carries), at every injection cycle of a multi-cycle universe.
func TestTemplateFromContinuation(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	for _, tc := range []struct {
		name  string
		setup func(o *Options)
	}{
		{"default", func(o *Options) {}},
		{"no-forever", func(o *Options) { o.DisableForever = true }},
		{"no-frontier", func(o *Options) { o.DisableFrontier = true }},
		{"no-reconvergence", func(o *Options) { o.DisableReconvergence = true }},
		{"no-fast-forward", func(o *Options) { o.DisableFastForward = true }},
		{"no-fork", func(o *Options) { o.DisableFork = true }},
		{"interval-400", func(o *Options) { o.SnapshotInterval = 400 }},
		{"epoch-20", func(o *Options) { o.Forever.Epoch = 20 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := multiCycleOptions(topology.NewMesh(4, 4), 6, 7, []int64{0, 150, 650}, 200, 2500, 300)
			tc.setup(&opts)
			o, err := opts.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			cycles, plan, key := o.goldenInputs()
			gold, err := buildGolden(&o, cycles, plan, key, nil)
			if err != nil {
				t.Fatal(err)
			}
			var w worker
			for _, c := range cycles {
				gc := gold.groups[c]
				var st runStats
				want, err := runSlow(&w, gc, o, nil, &st, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gc.tmpl, want) {
					t.Errorf("injection cycle %d: template assembled from the continuation\n %+v\nthe fault-free run gives\n %+v", c, gc.tmpl, want)
				}
				if tc.name != "epoch-20" {
					continue
				}
				if n := len(gc.gfv.Detections()); n == 0 || n >= forever.DetectionCap || !gc.tmpl.ForeverDetected {
					t.Errorf("injection cycle %d: golden monitor flagged %d times, template ForeverDetected = %t: want a flagging golden under the detection cap", c, n, gc.tmpl.ForeverDetected)
				}
			}
		})
	}
}

// TestWarmupPhaseSpans: the golden-warmup span carries, per injection
// cycle and in this order, a mainline, a window, a settle-horizon and a
// template phase span, which together cover most of it; the template of a
// sound golden is marked as not simulated again, and the one of a golden
// whose ForEVeR monitor filled its detection list (an epoch far too
// short) as simulated again — the fallback that keeps an unsound
// golden's template exact.
func TestWarmupPhaseSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cycles := []int64{0, 150, 650}
	opts := multiCycleOptions(topology.NewMesh(4, 4), 6, 7, cycles, 200, 2500, 300)
	warm, children := warmupSpans(t, opts)
	want := []string{"mainline", "window", "settle-horizon", "template"}
	if len(children) != len(want)*len(cycles) {
		t.Fatalf("golden-warmup has %d child spans, want %d per injection cycle", len(children), len(want))
	}
	var covered int64
	for i, s := range children {
		if s.Kind != "phase" || s.Name != want[i%len(want)] {
			t.Errorf("child %d is %s %q, want phase %q", i, s.Kind, s.Name, want[i%len(want)])
		}
		c := cycles[i/len(want)]
		attr := "inject_cycle"
		if s.Name == "mainline" {
			attr = "to_cycle"
		}
		if got, ok := s.Int(attr); !ok || got != c {
			t.Errorf("child %d (%s): %s = %d (present %t), want %d", i, s.Name, attr, got, ok, c)
		}
		if re, ok := s.Attrs["resimulated"].(bool); s.Name == "template" && (!ok || re) {
			t.Errorf("template of injection cycle %d: resimulated = %t (present %t), want false", c, re, ok)
		}
		covered += int64(s.Duration())
	}
	if total := int64(warm.Duration()); covered > total || covered < total/2 {
		t.Errorf("child spans cover %d ns of the warm-up's %d", covered, total)
	}

	opts.Forever.Epoch = 4 // nothing is delivered in four cycles: every node flags at every boundary
	_, children = warmupSpans(t, opts)
	for _, s := range children {
		if re, _ := s.Attrs["resimulated"].(bool); s.Name == "template" && !re {
			t.Errorf("template over a full ForEVeR detection list was not simulated again: %v", s.Attrs)
		}
	}
}
