package core

import (
	"strings"
	"testing"

	"nocalert/internal/router"
	"nocalert/internal/topology"
)

// Enabled reports whether checker id is active.
func (e *Engine) Enabled(id CheckerID) bool {
	return id >= 1 && id <= NumCheckers && e.enabled[id]
}

func testConfig() *router.Config {
	c := router.Default(topology.NewMesh(4, 4))
	return &c
}

func TestCheckerNamesComplete(t *testing.T) {
	if NumCheckers != 32 {
		t.Fatalf("NumCheckers = %d; the paper's Table 1 has 32 invariances", NumCheckers)
	}
	for id := CheckerID(1); id <= NumCheckers; id++ {
		s := id.String()
		if !strings.HasPrefix(s, "#") || len(s) < 5 {
			t.Errorf("checker %d renders %q", int(id), s)
		}
	}
	if CheckerID(99).String() != "#99" {
		t.Errorf("unknown checker renders %q", CheckerID(99).String())
	}
}

func TestLowRiskClass(t *testing.T) {
	for id := CheckerID(1); id <= NumCheckers; id++ {
		want := id == IllegalTurn || id == NonMinimalRoute
		if id.LowRisk() != want {
			t.Errorf("checker %v LowRisk = %v", id, id.LowRisk())
		}
	}
}

func TestEngineEnables(t *testing.T) {
	cfg := testConfig()
	e := NewEngine(cfg, Options{})
	if e.Enabled(NonAtomicPacketMixing) {
		t.Error("checker 27 enabled with atomic buffers")
	}
	if !e.Enabled(BufferAtomicity) {
		t.Error("checker 26 disabled with atomic buffers")
	}

	na := *cfg
	na.AtomicVC = false
	e2 := NewEngine(&na, Options{})
	if e2.Enabled(BufferAtomicity) || !e2.Enabled(NonAtomicPacketMixing) {
		t.Error("26/27 swap broken for non-atomic buffers")
	}

	e3 := NewEngine(cfg, Options{Disabled: []CheckerID{GrantWithoutRequest, EndToEndMisdelivery}})
	if e3.Enabled(GrantWithoutRequest) || e3.Enabled(EndToEndMisdelivery) {
		t.Error("explicit disable ignored")
	}
	if e3.Enabled(0) || e3.Enabled(NumCheckers+1) {
		t.Error("out-of-range ids report enabled")
	}
}

// countViolations tallies retained violations per checker.
func countViolations(e *Engine) map[CheckerID]int {
	n := map[CheckerID]int{}
	for _, v := range e.Violations() {
		n[v.Checker]++
	}
	return n
}

func TestEmitAggregation(t *testing.T) {
	e := NewEngine(testConfig(), Options{KeepViolations: true})
	// Cycle 10: checkers 4 and 17 fire (17 twice).
	e.emit(GrantWithoutRequest, 1, 10, 0, -1, "a")
	e.emit(ConsistentVCState, 1, 10, 0, 2, "b")
	e.emit(ConsistentVCState, 2, 10, 1, 0, "c")
	// Cycle 11: only checker 5.
	e.emit(GrantToNobody, 1, 11, 0, -1, "d")

	if !e.Detected() || e.FirstDetection() != 10 {
		t.Fatalf("FirstDetection = %d", e.FirstDetection())
	}
	if e.FirstHighRiskDetection() != 10 {
		t.Fatalf("FirstHighRiskDetection = %d", e.FirstHighRiskDetection())
	}
	if n := countViolations(e); n[ConsistentVCState] != 2 || n[GrantWithoutRequest] != 1 || n[GrantToNobody] != 1 || len(e.Violations()) != 4 {
		t.Fatalf("kept violations per checker %v, %d in all", n, len(e.Violations()))
	}
	fired := e.FiredCheckers()
	if len(fired) != 3 || fired[0] != GrantWithoutRequest || fired[1] != GrantToNobody || fired[2] != ConsistentVCState {
		t.Fatalf("FiredCheckers = %v", fired)
	}
	first := e.FirstCycleCheckers()
	if len(first) != 2 || first[0] != GrantWithoutRequest || first[1] != ConsistentVCState {
		t.Fatalf("FirstCycleCheckers = %v", first)
	}
	if got := e.Violations()[0].String(); !strings.Contains(got, "#4") {
		t.Fatalf("violation renders %q", got)
	}
}

func TestLowRiskOnlyTracking(t *testing.T) {
	e := NewEngine(testConfig(), Options{})
	e.emit(IllegalTurn, 0, 5, 1, 2, "turn")
	if !e.Detected() || e.FirstHighRiskDetection() != -1 {
		t.Fatal("high-risk detection set by a low-risk checker")
	}
	e.emit(NonMinimalRoute, 0, 6, 1, 2, "nonmin")
	if e.FirstHighRiskDetection() != -1 {
		t.Fatal("both low-risk checkers should keep the cautious system quiet")
	}
	e.emit(EndToEndMisdelivery, 3, 9, 4, 0, "e2e")
	if e.FirstHighRiskDetection() != 9 {
		t.Fatal("high-risk escalation broken")
	}
}

func TestDisabledCheckersNeverCount(t *testing.T) {
	e := NewEngine(testConfig(), Options{Disabled: []CheckerID{GrantWithoutRequest}, KeepViolations: true})
	e.emit(GrantWithoutRequest, 0, 3, 0, -1, "suppressed")
	if e.Detected() || e.FirstHighRiskDetection() != -1 || len(e.FiredCheckers()) != 0 || len(e.Violations()) != 0 {
		t.Fatal("disabled checker counted")
	}
}

func TestMaxViolationsCap(t *testing.T) {
	e := NewEngine(testConfig(), Options{KeepViolations: true, MaxViolations: 2})
	e.emit(IllegalTurn, 0, 0, 0, -1, "v0")
	for i := 1; i < 5; i++ {
		e.emit(GrantToNobody, 0, int64(i), 0, -1, "v%d", i)
	}
	if len(e.Violations()) != 2 {
		t.Fatalf("kept %d violations, want 2", len(e.Violations()))
	}
	// Past the retention cap the verdict's bookkeeping still sees every
	// assertion.
	e.emit(EndToEndMisdelivery, 0, 7, 0, -1, "v7")
	if fired := e.FiredCheckers(); len(fired) != 3 || fired[2] != EndToEndMisdelivery || e.FirstDetection() != 0 || e.FirstHighRiskDetection() != 1 {
		t.Fatalf("after the cap: fired %v, first detection %d, first high-risk %d", fired, e.FirstDetection(), e.FirstHighRiskDetection())
	}
}
