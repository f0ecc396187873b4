package campaign

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"nocalert/internal/core"
	"nocalert/internal/stats"
	"nocalert/internal/trace"
)

// Mechanism selects whose outcomes a report aggregates.
type Mechanism int

const (
	// NoCAlert is the full checker fabric reacting to any assertion.
	NoCAlert Mechanism = iota
	// Cautious is "NoCAlert Cautious": low-risk checkers (1 and 3)
	// alone do not trigger a response (Observation 2).
	Cautious
	// ForEVeR is the epoch-based baseline.
	ForEVeR
)

// String names the mechanism as in the paper's figures.
func (m Mechanism) String() string {
	switch m {
	case NoCAlert:
		return "NoCAlert"
	case Cautious:
		return "NoCAlert Cautious"
	case ForEVeR:
		return "ForEVeR"
	}
	return fmt.Sprintf("Mechanism(%d)", int(m))
}

// of returns the mechanism's outcome on a run and its detection latency
// (-1 when it never detected).
func (m Mechanism) of(r *trace.RunRecord) (trace.Outcome, int64) {
	switch m {
	case Cautious:
		return r.CautiousOutcome, r.CautiousLatency
	case ForEVeR:
		return r.ForeverOutcome, r.ForeverLatency
	default:
		return r.Outcome, r.Latency
	}
}

// Coverage is one Figure 6 bar: the outcome breakdown of a mechanism
// over all injected faults.
type Coverage struct {
	Mechanism                  Mechanism
	Total                      int
	TP, FP, TN, FN             int
	TPPct, FPPct, TNPct, FNPct float64
}

// Coverage aggregates the Figure 6 breakdown for the mechanism.
func (r *Report) Coverage(m Mechanism) Coverage {
	c := Coverage{Mechanism: m, Total: len(r.Results)}
	for i := range r.Results {
		switch o, _ := m.of(&r.Results[i]); o {
		case trace.TruePositive:
			c.TP++
		case trace.FalsePositive:
			c.FP++
		case trace.TrueNegative:
			c.TN++
		case trace.FalseNegative:
			c.FN++
		}
	}
	n := int64(c.Total)
	c.TPPct = stats.Pct(int64(c.TP), n)
	c.FPPct = stats.Pct(int64(c.FP), n)
	c.TNPct = stats.Pct(int64(c.TN), n)
	c.FNPct = stats.Pct(int64(c.FN), n)
	return c
}

// LatencyCDF returns the fault-detection delay distribution over the
// mechanism's true positives — the Figure 7 series.
func (r *Report) LatencyCDF(m Mechanism) *stats.CDF {
	var lat []int64
	for i := range r.Results {
		if o, l := m.of(&r.Results[i]); o == trace.TruePositive {
			lat = append(lat, l)
		}
	}
	return stats.NewCDF(lat)
}

// CheckerShare is one Figure 8 bar.
type CheckerShare struct {
	Checker core.CheckerID
	// SharePct is the checker's percentage of all detections,
	// attributing each detected fault to the checkers asserted in its
	// first detection cycle, in equal parts (shares sum to 100).
	SharePct float64
	// FiredRuns counts runs in which the checker fired at all.
	FiredRuns int
	// AloneRuns counts runs in which the checker was the only one to
	// fire — every checker having at least one such run is the paper's
	// "no single checker is redundant" remark.
	AloneRuns int
}

// CheckerShares aggregates Figure 8 over detected runs.
func (r *Report) CheckerShares() []CheckerShare {
	weights := make([]float64, core.NumCheckers+1)
	fired := make([]int, core.NumCheckers+1)
	alone := make([]int, core.NumCheckers+1)
	detected := 0
	for i := range r.Results {
		res := &r.Results[i]
		if !res.Outcome.Detected() {
			continue
		}
		detected++
		if len(res.FirstCycleCheckers) > 0 {
			w := 1.0 / float64(len(res.FirstCycleCheckers))
			for _, id := range res.FirstCycleCheckers {
				weights[id] += w
			}
		}
		for _, id := range res.CheckersFired {
			fired[id]++
		}
		if len(res.CheckersFired) == 1 {
			alone[res.CheckersFired[0]]++
		}
	}
	out := make([]CheckerShare, 0, core.NumCheckers)
	for id := 1; id <= core.NumCheckers; id++ {
		s := CheckerShare{Checker: core.CheckerID(id), FiredRuns: fired[id], AloneRuns: alone[id]}
		if detected > 0 {
			s.SharePct = 100 * weights[id] / float64(detected)
		}
		out = append(out, s)
	}
	return out
}

// SimultaneityDistribution returns hist where hist[k] counts detected
// faults that asserted exactly k distinct checkers — the Figure 9
// distribution ("most invariances were caught by two checkers, max 9").
func (r *Report) SimultaneityDistribution() []int64 {
	var hist []int64
	for i := range r.Results {
		res := &r.Results[i]
		if !res.Outcome.Detected() {
			continue
		}
		k := len(res.CheckersFired)
		for len(hist) <= k {
			hist = append(hist, 0)
		}
		hist[k]++
	}
	return hist
}

// Observation5 quantifies the paper's key empirical claim about
// non-invariant faults: of the injected faults that raised no assertion
// in the injection cycle itself, those that never raised one are all
// benign, and those that raised one later are all caught (and are
// exactly the delayed true positives).
type Observation5 struct {
	// NonInstant counts faults with no same-cycle assertion.
	NonInstant int
	// NeverViolated counts NonInstant faults that never asserted.
	NeverViolated int
	// NeverViolatedBenign counts NeverViolated faults judged benign by
	// the golden reference; the paper finds this equals NeverViolated.
	NeverViolatedBenign int
	// LaterViolated counts NonInstant faults that asserted later.
	LaterViolated int
	// LaterCaughtMalicious counts LaterViolated faults that were
	// network-correctness violations (all of which were caught, by
	// construction of LaterViolated).
	LaterCaughtMalicious int
}

// Observation5 aggregates the §4.3/Observation 5 accounting.
func (r *Report) Observation5() Observation5 {
	var o Observation5
	for i := range r.Results {
		res := &r.Results[i]
		detected := res.Outcome.Detected()
		if detected && res.Latency == 0 {
			continue
		}
		o.NonInstant++
		if !detected {
			o.NeverViolated++
			if !res.Malicious {
				o.NeverViolatedBenign++
			}
		} else {
			o.LaterViolated++
			if res.Malicious {
				o.LaterCaughtMalicious++
			}
		}
	}
	return o
}

// RecoveryExposure quantifies the paper's argument that detection
// latency drives recovery cost: while a fault goes undetected, the
// system keeps committing work that a recovery mechanism may have to
// unwind or re-verify. Exposure for one true positive is the detection
// latency multiplied by the per-cycle injection load — an estimate of
// the flits put at risk before the alarm.
type RecoveryExposure struct {
	Mechanism Mechanism
	// MeanFlitsAtRisk and MaxFlitsAtRisk estimate the traffic committed
	// between injection and detection, over true positives.
	MeanFlitsAtRisk float64
	MaxFlitsAtRisk  float64
	// MeanLatency is the mean detection latency over true positives.
	MeanLatency float64
}

// RecoveryExposure aggregates the exposure metric for a mechanism.
func (r *Report) RecoveryExposure(m Mechanism) RecoveryExposure {
	flitsPerCycle := r.Opts.Sim.InjectionRate * float64(r.Opts.Sim.Router.Mesh.Nodes())
	out := RecoveryExposure{Mechanism: m}
	n := 0
	for i := range r.Results {
		o, l := m.of(&r.Results[i])
		if o != trace.TruePositive {
			continue
		}
		lat := float64(l)
		risk := lat * flitsPerCycle
		out.MeanFlitsAtRisk += risk
		out.MeanLatency += lat
		if risk > out.MaxFlitsAtRisk {
			out.MaxFlitsAtRisk = risk
		}
		n++
	}
	if n > 0 {
		out.MeanFlitsAtRisk /= float64(n)
		out.MeanLatency /= float64(n)
	}
	return out
}

// WriteRecoveryExposure renders the exposure comparison.
func (r *Report) WriteRecoveryExposure(w io.Writer) {
	t := stats.NewTable(
		"Recovery exposure — traffic committed between fault and detection (true positives)",
		"Mechanism", "mean latency (cyc)", "mean flits at risk", "max flits at risk")
	for _, m := range []Mechanism{NoCAlert, ForEVeR} {
		e := r.RecoveryExposure(m)
		t.AddRow(m.String(), e.MeanLatency, e.MeanFlitsAtRisk, e.MaxFlitsAtRisk)
	}
	t.Render(w)
}

// WriteHeatmaps renders per-router spatial distributions: where faults
// were injected, where they did damage, and where the first assertion
// was raised — a quick visual check that detection tracks the fault
// sites rather than clustering elsewhere.
func (r *Report) WriteHeatmaps(w io.Writer) {
	m := r.Opts.Sim.Router.Mesh
	injected := stats.NewHeatmap("faults injected per router", m.W, m.H)
	malicious := stats.NewHeatmap("network-correctness violations per fault router", m.W, m.H)
	detected := stats.NewHeatmap("first assertions per asserting router", m.W, m.H)
	for i := range r.Results {
		res := &r.Results[i]
		injected.Add(res.Router, 1)
		if res.Malicious {
			malicious.Add(res.Router, 1)
		}
		if res.Outcome.Detected() {
			detected.Add(res.Router, 1)
		}
	}
	injected.Render(w)
	malicious.Render(w)
	detected.Render(w)
}

// FalseNegatives returns the mechanism's false-negative count —
// Observation 1 asserts zero for both NoCAlert and ForEVeR.
func (r *Report) FalseNegatives(m Mechanism) int {
	n := 0
	for i := range r.Results {
		if o, _ := m.of(&r.Results[i]); o == trace.FalseNegative {
			n++
		}
	}
	return n
}

// MaliciousCount returns the number of faults that violated network
// correctness.
func (r *Report) MaliciousCount() int {
	n := 0
	for i := range r.Results {
		if r.Results[i].Malicious {
			n++
		}
	}
	return n
}

// FiredCount returns the number of faults that actually corrupted a
// live signal.
func (r *Report) FiredCount() int {
	n := 0
	for i := range r.Results {
		if r.Results[i].Fired {
			n++
		}
	}
	return n
}

// WriteFig6 renders the Figure 6 table.
func (r *Report) WriteFig6(w io.Writer) {
	t := stats.NewTable(
		fmt.Sprintf("Figure 6 — fault coverage breakdown (%s, %d faults)",
			r.injectionCycles(), len(r.Results)),
		"Mechanism", "TP%", "FP%", "TN%", "FN%")
	for _, m := range []Mechanism{NoCAlert, Cautious, ForEVeR} {
		c := r.Coverage(m)
		t.AddRow(m.String(), c.TPPct, c.FPPct, c.TNPct, c.FNPct)
	}
	t.Render(w)
}

// injectionCycles names the distinct injection cycles the runs inject at,
// in ascending order: "injection cycle 300", "injection cycles 0, 16000,
// 32000".
func (r *Report) injectionCycles() string {
	cycles := make([]int64, len(r.Results))
	for i := range r.Results {
		cycles[i] = r.Results[i].Cycle
	}
	slices.Sort(cycles)
	cycles = slices.Compact(cycles)
	if len(cycles) == 1 {
		return fmt.Sprintf("injection cycle %d", cycles[0])
	}
	names := make([]string, len(cycles))
	for i, c := range cycles {
		names[i] = strconv.FormatInt(c, 10)
	}
	return "injection cycles " + strings.Join(names, ", ")
}

// WriteFig7 renders the Figure 7 latency CDF at the paper's milestones.
func (r *Report) WriteFig7(w io.Writer) {
	t := stats.NewTable(
		"Figure 7 — cumulative fault-detection delay over true positives (cycles)",
		"Mechanism", "N", "same-cycle%", "p50", "p97", "p99", "p100")
	for _, m := range []Mechanism{NoCAlert, ForEVeR} {
		cdf := r.LatencyCDF(m)
		if cdf.N() == 0 {
			t.AddRow(m.String(), 0, "-", "-", "-", "-", "-")
			continue
		}
		t.AddRow(m.String(), cdf.N(),
			100*cdf.AtOrBelow(0),
			cdf.Percentile(0.50), cdf.Percentile(0.97), cdf.Percentile(0.99), cdf.Max())
	}
	t.Render(w)
}

// WriteFig7CDF renders the whole detection-delay CDF curves as plottable
// (delay, cumulative%) series, at the milestones WriteJSON exports.
func (r *Report) WriteFig7CDF(w io.Writer) {
	t := stats.NewTable("Figure 7 — CDF series (cumulative % of true positives detected within N cycles)",
		"Delay (cycles)", "NoCAlert", "ForEVeR")
	na := r.LatencyCDF(NoCAlert)
	fv := r.LatencyCDF(ForEVeR)
	for _, d := range cdfMilestones {
		t.AddRow(d, 100*na.AtOrBelow(d), 100*fv.AtOrBelow(d))
	}
	t.Render(w)
}

// WriteFig8 renders the Figure 8 per-checker attribution.
func (r *Report) WriteFig8(w io.Writer) {
	t := stats.NewTable(
		"Figure 8 — share of invariance violations per checker",
		"Checker", "Share%", "Fired-in-runs", "Alone-in-runs")
	for _, s := range r.CheckerShares() {
		if s.FiredRuns == 0 {
			continue
		}
		t.AddRow(s.Checker.String(), s.SharePct, s.FiredRuns, s.AloneRuns)
	}
	t.Render(w)
}

// WriteFig9 renders the Figure 9 simultaneity distribution.
func (r *Report) WriteFig9(w io.Writer) {
	hist := r.SimultaneityDistribution()
	var total int64
	for _, v := range hist {
		total += v
	}
	t := stats.NewTable(
		"Figure 9 — distribution of simultaneously asserted checkers per detected fault",
		"#checkers", "faults", "%", "cumulative%")
	var cum int64
	for k := 1; k < len(hist); k++ {
		cum += hist[k]
		t.AddRow(k, hist[k], stats.Pct(hist[k], total), stats.Pct(cum, total))
	}
	t.Render(w)
}

// WriteObs5 renders the Observation 5 accounting.
func (r *Report) WriteObs5(w io.Writer) {
	o := r.Observation5()
	t := stats.NewTable("Observation 5 — faults with no same-cycle assertion",
		"Category", "Count", "%of-non-instant")
	n := int64(o.NonInstant)
	t.AddRow("no assertion ever (must be benign)", o.NeverViolated, stats.Pct(int64(o.NeverViolated), n))
	t.AddRow("  ... judged benign by golden ref", o.NeverViolatedBenign, stats.Pct(int64(o.NeverViolatedBenign), n))
	t.AddRow("assertion later (caught downstream)", o.LaterViolated, stats.Pct(int64(o.LaterViolated), n))
	t.AddRow("  ... of which malicious", o.LaterCaughtMalicious, stats.Pct(int64(o.LaterCaughtMalicious), n))
	t.Render(w)
}
