package statehash_test

import (
	"sync"
	"testing"

	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/statehash"
	"nocalert/internal/topology"
)

// TestFoldIsOrderSensitive: an enumeration of state is a sequence, and two
// networks that hold the same words in different places must not fold
// alike. Every pair of distinct words, in either order and against the
// pair repeated, gives four different accumulators, and none of them is the
// seed's.
func TestFoldIsOrderSensitive(t *testing.T) {
	words := []uint64{0, 1, 2, 1 << 29, 1 << 63, ^uint64(0), statehash.Seed, 0xff51afd7ed558ccd}
	for i, a := range words {
		for _, b := range words[i+1:] {
			ab := statehash.Fold(statehash.Fold(statehash.Seed, a), b)
			ba := statehash.Fold(statehash.Fold(statehash.Seed, b), a)
			aa := statehash.Fold(statehash.Fold(statehash.Seed, a), a)
			bb := statehash.Fold(statehash.Fold(statehash.Seed, b), b)
			seen := map[uint64]bool{statehash.Seed: true}
			for _, h := range []uint64{ab, ba, aa, bb} {
				if seen[h] {
					t.Fatalf("words %#x and %#x: folds %#x %#x %#x %#x are not all different from one another and the seed", a, b, ab, ba, aa, bb)
				}
				seen[h] = true
			}
		}
	}
	// One more word moves the accumulator, the empty enumeration's too.
	if statehash.Fold(statehash.Seed, 0) == statehash.Seed {
		t.Fatal("folding a zero word left the seed where it was")
	}
}

// TestFoldIntSignExtends: FoldInt is Fold of the sign-extended word, so −1
// and the all-ones word collide, as its comment promises, and no negative
// value collides with its magnitude or with the 32-bit pattern of itself.
func TestFoldIntSignExtends(t *testing.T) {
	for _, v := range []int{-1, -2, -7, -1 << 20, 0, 1, 7, 1 << 20} {
		if got, want := statehash.FoldInt(statehash.Seed, v), statehash.Fold(statehash.Seed, uint64(int64(v))); got != want {
			t.Fatalf("FoldInt(%d) = %#x, Fold of the sign-extended word %#x", v, got, want)
		}
		if v >= 0 {
			continue
		}
		if statehash.FoldInt(statehash.Seed, v) == statehash.FoldInt(statehash.Seed, -v) {
			t.Fatalf("FoldInt(%d) collides with FoldInt(%d)", v, -v)
		}
		if statehash.FoldInt(statehash.Seed, v) == statehash.Fold(statehash.Seed, uint64(uint32(int32(v)))) {
			t.Fatalf("FoldInt(%d) collides with the fold of its zero-extended 32-bit pattern", v)
		}
	}
	if statehash.FoldInt(statehash.Seed, -1) != statehash.Fold(statehash.Seed, ^uint64(0)) {
		t.Fatal("FoldInt(-1) and Fold(^0) differ: both mean \"no value\"")
	}
}

func TestFoldBoolDistinguishes(t *testing.T) {
	for _, h := range []uint64{0, statehash.Seed, ^uint64(0)} {
		if statehash.FoldBool(h, true) == statehash.FoldBool(h, false) {
			t.Fatalf("FoldBool(%#x, true) == FoldBool(%#x, false)", h, h)
		}
		if statehash.FoldBool(h, true) != statehash.Fold(h, 1) || statehash.FoldBool(h, false) != statehash.Fold(h, 0) {
			t.Fatalf("FoldBool(%#x, ·) is not the fold of 1 and 0", h)
		}
	}
}

// TestSharedSnapshotFoldsWithoutAWrite: a state fold keeps what it has
// folded and writes it where the state was written since (router.FoldState,
// the NI's share in sim), which only the goroutine that steps a network may
// do. A clone product is handed the cache complete, so a snapshot that is
// never stepped — the campaign's fork points, which every worker forks
// from and the builder fingerprints — is folded by any number of goroutines
// at once: under -race (make race) a single write from Fingerprint, from
// StaticFingerprint or from a fork taken meanwhile fails this test. The
// mainline the snapshot is taken from has never been folded, so every term
// of the copy's cache is one CloneInto had to take. (That the packed
// output-side words of the fold are lossless is internal/router's
// TestPortWordsPackLosslessly, beside the registers they pack.)
func TestSharedSnapshotFoldsWithoutAWrite(t *testing.T) {
	mainline := sim.MustNew(sim.Config{Router: router.Default(topology.NewMesh(4, 4)), InjectionRate: 0.12, Seed: 3}, nil)
	mainline.Run(200)
	snap := mainline.CloneInto(nil, nil)
	want := mainline.Fingerprint() // the mainline's own goroutine may write its cache

	const readers = 4
	got := make([][3]uint64, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got[g][0] = snap.Fingerprint()
				got[g][1] = snap.StaticFingerprint()
				fork := snap.CloneInto(nil, nil)
				fork.Run(3) // a fork is its goroutine's own
				got[g][2] = fork.Fingerprint()
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if got[g][0] != want {
			t.Fatalf("reader %d: the snapshot folds to %#x, the network it was taken from to %#x", g, got[g][0], want)
		}
		if got[g] != got[0] {
			t.Fatalf("readers 0 and %d disagree: %x, %x", g, got[0], got[g])
		}
	}
	mainline.Run(3)
	if got[0][2] != mainline.Fingerprint() {
		t.Fatal("a fork of the snapshot, stepped three cycles, is not the mainline three cycles on")
	}
}
