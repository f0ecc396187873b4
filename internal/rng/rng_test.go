package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1, 0)
	b := New(2, 0)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal draws", same)
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := New(1, 0)
	b := New(1, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different streams produced %d/100 equal draws", same)
	}
}

func TestCloneContinuesIdentically(t *testing.T) {
	g := New(9, 3)
	for i := 0; i < 37; i++ {
		g.Uint32()
	}
	c := g.Clone()
	for i := 0; i < 500; i++ {
		if g.Uint64() != c.Uint64() {
			t.Fatalf("clone diverged at draw %d", i)
		}
	}
}

// TestIntnBounds is a property test: Intn(n) always lands in [0, n).
func TestIntnBounds(t *testing.T) {
	g := New(11, 0)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := g.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1, 0).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	g := New(123, 5)
	const n, draws = 8, 80000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[g.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.06*want {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	g := New(77, 0)
	var sum float64
	const draws = 50000
	for i := 0; i < draws; i++ {
		v := g.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %.4f, want ~0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	g := New(5, 5)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
	hits := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if g.Bernoulli(0.25) {
			hits++
		}
	}
	if rate := float64(hits) / draws; math.Abs(rate-0.25) > 0.01 {
		t.Errorf("Bernoulli(0.25) rate %.4f", rate)
	}
}

// TestBernoulliIsFloat64Comparison holds Bernoulli to what it replaces,
// Float64() < prob, answer and stream both: over random generator states
// and probabilities, and at thresholds on both sides of the cut the first
// draw hi makes — hi/2³² and (hi+1)/2³², the floats next to them, a
// probability strictly between them (which the first draw cannot settle)
// and the Float64 value itself and its neighbours.
func TestBernoulliIsFloat64Comparison(t *testing.T) {
	seeds := New(2024, 1)
	check := func(g *PCG, prob float64) {
		t.Helper()
		ref, got := g.Clone(), g.Clone()
		want := ref.Float64() < prob
		if got.Bernoulli(prob) != want {
			t.Fatalf("state %+v prob %v: Bernoulli %t, Float64() < prob is %t", *g, prob, !want, want)
		}
		if *got != *ref {
			t.Fatalf("state %+v prob %v: Bernoulli left the stream at %+v, Float64 at %+v", *g, prob, *got, *ref)
		}
	}
	for i := 0; i < 20000; i++ {
		g := New(seeds.Uint64(), seeds.Uint64())
		check(g, seeds.Float64())
		hi := float64(g.Clone().Uint32())
		x := g.Clone().Float64()
		for _, prob := range []float64{
			hi * 0x1p-32, (hi + 1) * 0x1p-32, (hi + 0.5) * 0x1p-32,
			math.Nextafter(hi*0x1p-32, 0), math.Nextafter(hi*0x1p-32, 1),
			math.Nextafter((hi+1)*0x1p-32, 0), math.Nextafter((hi+1)*0x1p-32, 1),
			x, math.Nextafter(x, 0), math.Nextafter(x, 1),
		} {
			if prob > 0 && prob < 1 {
				check(g, prob)
			}
		}
	}
}

// TestPermIsPermutation is a property test: Perm(n) is always a
// permutation of [0, n).
func TestPermIsPermutation(t *testing.T) {
	g := New(31, 2)
	f := func(nRaw uint8) bool {
		n := int(nRaw % 64)
		p := g.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDeriveIsPositional is the property sharded campaigns rely on:
// the stream derived for a coordinate depends only on the coordinate,
// never on derivation order or on sibling derivations.
func TestDeriveIsPositional(t *testing.T) {
	// Same (seed, path) → same value, computed in any interleaving.
	for _, path := range [][]uint64{{0}, {1}, {7, 3}, {3, 7}, {0, 0, 0}} {
		a := Derive(99, path...)
		for i := uint64(0); i < 50; i++ {
			Derive(99, i) // unrelated derivations in between
		}
		if b := Derive(99, path...); a != b {
			t.Fatalf("Derive(99, %v) unstable: %x vs %x", path, a, b)
		}
	}
	if Derive(99, 7, 3) == Derive(99, 3, 7) {
		t.Fatal("Derive ignores path order")
	}
	if Derive(99, 1) == Derive(99, 1, 0) {
		t.Fatal("Derive ignores path length")
	}
	if Derive(1, 5) == Derive(2, 5) {
		t.Fatal("Derive ignores seed")
	}
}

func TestNewDerivedStreamsIndependent(t *testing.T) {
	a := NewDerived(4, 10)
	b := NewDerived(4, 11)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived sibling streams produced %d/100 equal draws", same)
	}
	// Re-deriving the same coordinate replays the identical stream.
	x, y := NewDerived(4, 10), NewDerived(4, 10)
	for i := 0; i < 200; i++ {
		if x.Uint32() != y.Uint32() {
			t.Fatalf("re-derived stream diverged at draw %d", i)
		}
	}
}

func TestZeroValueUsable(t *testing.T) {
	var g PCG
	// The zero value must not panic and must produce a stream.
	a, b := g.Uint32(), g.Uint32()
	_ = a
	_ = b
}
