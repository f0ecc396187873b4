package campaign

import (
	"reflect"
	"testing"

	"nocalert/internal/forever"
	"nocalert/internal/obs"
	"nocalert/internal/topology"
)

// TestTemplateFromContinuation holds the fault-free template the golden
// warm-up assembles from the continuation it steps anyway to the one it
// used to get by simulating the run a second time: runSlow with an empty
// fault plane, through fork, window, drain, horizon and verdict, every
// cycle stepped. Every field must agree, under each setting that changes
// how either side steps (no ForEVeR: no horizon, and the continuation
// settles its transcript past the template's last cycle; a ForEVeR epoch
// short enough that the golden monitor flags, whose first flag the
// template then carries), at every injection cycle of a multi-cycle
// universe.
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
		{"epoch-20", func(o *Options) { o.Forever.Epoch = 20 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := multiCycleOptions(topology.NewMesh(4, 4), 6, 7, []int64{0, 150, 650}, 200, 2500, 300)
			tc.setup(&opts)
			o, err := opts.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			gold := builtGolden(t, &o)
			var w worker
			for _, c := range distinctCycles(o.FaultGroups) {
				gc := gold.groups[c].gc
				var st runStats
				want := runSlow(&w, gc, o, nil, &st, nil)
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

// TestWarmupPhaseSpans: under the golden-warmup span the mainline spans
// tile [0, last injection cycle] and every injection cycle has a group
// span holding one complete chain, window then settle-horizon then
// template, each inside the one before's end and the group's. Chains of
// different cycles and the mainline overlap each other, so no sum of
// children is held to the parent; the parent ends with the last group
// and says when the first was out. The template of a sound golden is
// marked as not simulated again, and the one of a golden whose ForEVeR
// monitor filled its detection list (an epoch far too short) as
// simulated again — the fallback that keeps an unsound golden's template
// exact.
func TestWarmupPhaseSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cycles := []int64{0, 150, 650}
	opts := multiCycleOptions(topology.NewMesh(4, 4), 6, 7, cycles, 200, 2500, 300)
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
	if at != cycles[len(cycles)-1] {
		t.Errorf("mainline spans tile [0, %d], the last injection cycle is %d", at, cycles[len(cycles)-1])
	}
	if len(groups) != len(cycles) {
		t.Fatalf("%d group spans, want one per injection cycle", len(groups))
	}
	for _, c := range cycles {
		g := groups[c]
		prevEnd := g.StartNano
		var chain []string
		for _, s := range spans { // in the order they ended
			if s.ParentID != g.SpanID {
				continue
			}
			chain = append(chain, s.Name)
			if ic, ok := s.Int("inject_cycle"); !ok || ic != c {
				t.Errorf("%s under the group of injection cycle %d carries inject_cycle %d (present %t)", s.Name, c, ic, ok)
			}
			if s.StartNano < prevEnd || s.EndNano > g.EndNano {
				t.Errorf("injection cycle %d: %s does not follow the phase before it inside the group span", c, s.Name)
			}
			prevEnd = s.EndNano
			if re, ok := s.Attrs["resimulated"].(bool); s.Name == "template" && (!ok || re) {
				t.Errorf("template of injection cycle %d: resimulated = %t (present %t), want false", c, re, ok)
			}
		}
		if want := []string{"window", "settle-horizon", "template"}; !reflect.DeepEqual(chain, want) {
			t.Errorf("injection cycle %d: group span holds %v, want %v", c, chain, want)
		}
	}

	opts.Forever.Epoch = 4 // nothing is delivered in four cycles: every node flags at every boundary
	_, spans = tracedRun(t, opts)
	templates := 0
	for _, s := range spans {
		if s.Name != "template" {
			continue
		}
		templates++
		if re, _ := s.Attrs["resimulated"].(bool); !re {
			t.Errorf("template over a full ForEVeR detection list was not simulated again: %v", s.Attrs)
		}
	}
	if templates != len(cycles) {
		t.Errorf("%d template spans, want %d", templates, len(cycles))
	}
}
