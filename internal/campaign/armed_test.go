package campaign

import (
	"bytes"
	"os"
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/metrics"
	"nocalert/internal/rng"
)

const armedReportPath = "../../testdata/report_8x8_armed_seed3.json"

// armedFaults draws the faults of the armed-fault fixture from the whole
// universe of spec's mesh: 16 permanent faults on credit-counter register
// bits, drawn as the repository benchmark's w8x8_permanent draws its own,
// and 8 intermittent faults anywhere. None of them ever goes quiescent,
// so every run is still armed at its window end and takes neither the
// fast path nor the reconvergence exit.
func armedFaults(spec Spec) []fault.Fault {
	spec.NumFaults = 0 // the whole universe, in enumeration order
	all := spec.Universe()
	var credit []fault.Fault
	for _, f := range all {
		if f.Site.Kind == fault.CreditCountReg {
			f.Type = fault.Permanent
			credit = append(credit, f)
		}
	}
	var out []fault.Fault
	for _, j := range rng.New(spec.Seed, 0xbe7c).Perm(len(credit))[:16] {
		out = append(out, credit[j])
	}
	g := rng.New(spec.Seed, 0x1e77)
	for i := 0; i < 8; i++ {
		f := all[g.Intn(len(all))]
		f.Type = fault.Intermittent
		f.Period = int64(2 + g.Intn(30))
		f.Duty = 1 + int64(g.Intn(int(f.Period)))
		out = append(out, f)
	}
	return out
}

// TestArmedFaultReportFixture pins, byte for byte and under both sweep
// engines, the report of a small 8×8 campaign of faults that stay armed:
// what fired (a permanent credit-counter fault on an output nobody uses
// fires only through the pre-cycle snapshot's consult of the counter),
// every outcome and every latency — from one worker with no cache, from
// four workers filling a golden cache and from one worker reading it
// warm. The committed bytes were generated at the commit before the
// snapshot went sparse (and long before a fault's liveness became its own
// router's); regenerate them with -update-golden only after an intended
// behaviour change.
func TestArmedFaultReportFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := Golden8x8Spec()
	// A wedged fabric steps its whole drain deadline and horizon on the
	// full mesh: keep both short.
	spec.DrainDeadline, spec.Epoch = 1500, 500
	faults := armedFaults(spec)
	for _, engine := range []struct {
		name  string
		noSoA bool
	}{{"fast", false}, {"reference", true}} {
		t.Run(engine.name, func(t *testing.T) {
			cache := NewGoldenCache()
			for _, how := range []struct {
				name         string
				workers      int
				cache        *GoldenCache
				hits, misses int64
			}{{"one worker", 1, nil, 0, 0}, {"four workers, cold cache", 4, cache, 0, 1}, {"one worker, warm cache", 1, cache, 1, 0}} {
				opts := spec.Options()
				opts.Faults = faults
				opts.Sim.DisableSoA = engine.noSoA
				opts.Workers, opts.GoldenCache, opts.Metrics = how.workers, how.cache, metrics.NewRegistry()
				rep := mustRun(t, opts)
				if hits, misses := cacheCounts(opts.Metrics); how.cache != nil && (hits != how.hits || misses != how.misses) {
					t.Errorf("%s: %d golden cache hits and %d misses, want %d and %d", how.name, hits, misses, how.hits, how.misses)
				}
				if rep.FastPathHits != 0 || rep.ReconvergedHits != 0 {
					t.Errorf("%s: %d fast-path and %d reconverged exits among faults that never go quiescent", how.name, rep.FastPathHits, rep.ReconvergedHits)
				}
				for i := range faults[:16] {
					if !rep.Results[i].Fired {
						t.Errorf("%s: permanent credit-counter fault %d (%v) did not fire", how.name, i, &faults[i])
					}
				}
				got := reportBytes(t, rep)
				if *updateGolden {
					if err := os.WriteFile(armedReportPath, got, 0o644); err != nil {
						t.Fatal(err)
					}
					t.Logf("rewrote %s", armedReportPath)
					return
				}
				want, err := os.ReadFile(armedReportPath)
				if err != nil {
					t.Fatalf("no armed-fault report fixture (go test -run TestArmedFaultReportFixture -update-golden creates it): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: report differs from %s:\n got: %s\nwant: %s", how.name, armedReportPath, got, want)
				}
			}
		})
	}
}

// TestDoubleFaultGroupMatchesReference runs groups of two faults that
// give two routers two different liveness windows — a transient anywhere,
// live on the strike cycle only, and a permanent credit-counter fault on
// another router, live from then on — and requires the fast engine's
// report, where only the two hosts ever leave the fast sweep and the
// inert skip, to be the reference engine's byte for byte.
func TestDoubleFaultGroupMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := Golden8x8Spec()
	spec.DrainDeadline, spec.Epoch = 1500, 500
	spec.NumFaults = 6
	transients, permanents := spec.Universe(), armedFaults(spec)[:16]
	var groups [][]fault.Fault
	for i, tr := range transients {
		for _, pm := range permanents[i:] {
			if pm.Site.Router != tr.Site.Router {
				groups = append(groups, []fault.Fault{tr, pm})
				break
			}
		}
	}
	if len(groups) != len(transients) {
		t.Fatalf("paired %d of %d transients with a permanent fault on another router", len(groups), len(transients))
	}
	var reports [2][]byte
	for i, noSoA := range []bool{false, true} {
		opts := spec.Options()
		opts.FaultGroups = groups
		opts.Sim.DisableSoA = noSoA
		rep := mustRun(t, opts)
		for g := range groups {
			if !rep.Results[g].Fired {
				t.Errorf("DisableSoA=%t: group %d (%v, %v) did not fire", noSoA, g, &groups[g][0], &groups[g][1])
			}
		}
		reports[i] = reportBytes(t, rep)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Errorf("double-fault report differs between the engines:\n     fast: %s\nreference: %s", reports[0], reports[1])
	}
}

// TestOneShotIntermittentCloses: an intermittent fault without a period
// strikes on its injection cycle and never again (Fault.ActiveAt), so its
// run may leave by the fast path or reconverge like a transient's. The
// plane used to call such a fault armed for ever in two of its three
// predicates, which sent every one of these runs down the whole window,
// drain and horizon. The report is the one of the campaign with every
// shortcut off.
func TestOneShotIntermittentCloses(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := GoldenSpec()
	spec.NumFaults = 48
	faults := spec.Universe()
	for i := range faults {
		faults[i].Type = fault.Intermittent // Period 0: one strike
	}
	opts := spec.Options()
	opts.Faults = faults
	fast := mustRun(t, opts)
	if fast.FastPathHits == 0 || fast.ReconvergedHits == 0 {
		t.Errorf("%d fast-path and %d reconverged exits among %d one-shot faults: their windows never closed", fast.FastPathHits, fast.ReconvergedHits, len(faults))
	}
	opts.FullSim = true
	slow := mustRun(t, opts)
	if got, want := reportBytes(t, fast), reportBytes(t, slow); !bytes.Equal(got, want) {
		t.Errorf("report differs from the one with every shortcut off:\n got: %s\nwant: %s", got, want)
	}
}
