package stats

import (
	"testing"
	"testing/quick"
)

// TestCDFMergeEqualsUnion is the shard-merge property: merging
// per-shard CDFs must equal the CDF built from the concatenated
// samples, at every query point.
func TestCDFMergeEqualsUnion(t *testing.T) {
	f := func(a, b []int16) bool {
		as := make([]int64, len(a))
		for i, v := range a {
			as[i] = int64(v)
		}
		bs := make([]int64, len(b))
		for i, v := range b {
			bs[i] = int64(v)
		}
		merged := NewCDF(as).Merge(NewCDF(bs))
		whole := NewCDF(append(append([]int64(nil), as...), bs...))
		if merged.N() != whole.N() {
			return false
		}
		for _, q := range []int64{-40000, -1, 0, 1, 100, 40000} {
			if merged.AtOrBelow(q) != whole.AtOrBelow(q) {
				return false
			}
		}
		if merged.N() == 0 {
			return true
		}
		for _, p := range []float64{0, 0.25, 0.5, 0.97, 1} {
			if merged.Percentile(p) != whole.Percentile(p) {
				return false
			}
		}
		return merged.Max() == whole.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFMergeDoesNotMutateInputs(t *testing.T) {
	a := NewCDF([]int64{5, 1, 9})
	b := NewCDF([]int64{3, 7})
	_ = a.Merge(b)
	if a.N() != 3 || b.N() != 2 || a.Percentile(0) != 1 || b.Max() != 7 {
		t.Fatal("Merge mutated an input CDF")
	}
}

func TestMergeCDFs(t *testing.T) {
	out := MergeCDFs(NewCDF([]int64{4}), nil, NewCDF([]int64{1, 2}), NewCDF(nil))
	if out.N() != 3 || out.Percentile(0) != 1 || out.Max() != 4 {
		t.Fatalf("MergeCDFs folded wrong: n=%d min=%d max=%d", out.N(), out.Percentile(0), out.Max())
	}
	if MergeCDFs().N() != 0 {
		t.Fatal("MergeCDFs() not empty")
	}
}

func TestTallyMerge(t *testing.T) {
	var a, b Tally
	a.Add("TP", 3)
	a.Add("TN", 1)
	b.Add("TP", 2)
	b.Add("FN", 5)
	a.Merge(&b)
	if a.Get("TP") != 5 || a.Get("TN") != 1 || a.Get("FN") != 5 || a.Get("FP") != 0 {
		t.Fatalf("merged tally wrong: %v %v %v", a.Get("TP"), a.Get("TN"), a.Get("FN"))
	}
	if a.Total() != 11 {
		t.Fatalf("Total = %d, want 11", a.Total())
	}
	var zero Tally
	if zero.Get("x") != 0 || zero.Total() != 0 {
		t.Fatal("zero Tally not usable")
	}
}
