package campaign

import (
	"bytes"
	"os"
	"testing"

	"nocalert/internal/fault"
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
// every outcome and every latency. The committed bytes were generated at
// the commit before the snapshot went sparse; regenerate them with
// -update-golden only after an intended behaviour change.
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
			opts := spec.Options()
			opts.Faults = faults
			opts.Sim.DisableSoA = engine.noSoA
			rep := mustRun(t, opts)
			if rep.FastPathHits != 0 || rep.ReconvergedHits != 0 {
				t.Errorf("%d fast-path and %d reconverged exits among faults that never go quiescent", rep.FastPathHits, rep.ReconvergedHits)
			}
			for i := range faults[:16] {
				if !rep.Results[i].Fired {
					t.Errorf("permanent credit-counter fault %d (%v) did not fire", i, &faults[i])
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
				t.Errorf("report differs from %s:\n got: %s\nwant: %s", armedReportPath, got, want)
			}
		})
	}
}
