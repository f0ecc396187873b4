package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]int64{5, 1, 3, 3, 9})
	if c.N() != 5 || c.Percentile(0) != 1 || c.Max() != 9 {
		t.Fatalf("N/Min/Max = %d/%d/%d", c.N(), c.Percentile(0), c.Max())
	}
	if got := c.AtOrBelow(3); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("AtOrBelow(3) = %g", got)
	}
	if got := c.AtOrBelow(0); got != 0 {
		t.Fatalf("AtOrBelow(0) = %g", got)
	}
	if got := c.AtOrBelow(9); got != 1 {
		t.Fatalf("AtOrBelow(9) = %g", got)
	}
	if got := c.Mean(); math.Abs(got-4.2) > 1e-12 {
		t.Fatalf("Mean = %g", got)
	}
}

func TestCDFPercentiles(t *testing.T) {
	c := NewCDF([]int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	cases := map[float64]int64{0: 10, 0.1: 10, 0.5: 50, 0.97: 100, 1: 100}
	for p, want := range cases {
		if got := c.Percentile(p); got != want {
			t.Errorf("Percentile(%g) = %d, want %d", p, got, want)
		}
	}
}

func TestEmptyCDF(t *testing.T) {
	c := NewCDF(nil)
	if c.N() != 0 || c.AtOrBelow(5) != 0 || c.Max() != 0 || c.Mean() != 0 {
		t.Fatal("empty CDF accessors broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile on empty CDF should panic")
		}
	}()
	c.Percentile(0.5)
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	in := []int64{3, 1, 2}
	c := NewCDF(in)
	if in[0] != 3 {
		t.Fatal("NewCDF sorted the caller's slice")
	}
	in[0] = 99
	if c.Max() == 99 {
		t.Fatal("CDF aliases the caller's slice")
	}
}

// Property: AtOrBelow is monotone and Percentile inverts it.
func TestCDFProperties(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]int64, len(raw))
		for i, v := range raw {
			samples[i] = int64(v)
		}
		c := NewCDF(samples)
		sorted := append([]int64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		// Monotonicity.
		prev := -1.0
		for _, x := range sorted {
			cur := c.AtOrBelow(x)
			if cur < prev {
				return false
			}
			prev = cur
		}
		// Percentile(p) has at least p mass at or below it.
		for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
			if c.AtOrBelow(c.Percentile(p)) < p-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPct(t *testing.T) {
	if Pct(1, 4) != 25 || Pct(0, 10) != 0 || Pct(3, 0) != 0 {
		t.Fatal("Pct broken")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 3.14159)
	tb.AddRow("long-name-here", 42)
	out := render(tb)
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "3.14") || strings.Contains(out, "3.14159") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	// Columns must align: header and rows share the first column width.
	if !strings.HasPrefix(lines[3], "alpha ") {
		t.Fatalf("misaligned rows:\n%s", out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "h")
	tb.AddRow("x")
	if strings.Contains(render(tb), "==") {
		t.Fatal("empty title rendered")
	}
}
