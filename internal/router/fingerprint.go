package router

import (
	"math/bits"

	"nocalert/internal/bitvec"
	"nocalert/internal/statehash"
)

// FoldState folds every piece of the router's mutable architectural
// state into a state-fingerprint accumulator. The enumeration mirrors
// CloneInto exactly — anything a clone must copy, the fingerprint must
// cover — so two routers of the same configuration whose folds agree
// step identically given identical inputs. Both sweep engines share
// this storage and this fold, which is what makes the lockstep
// differential test's per-cycle fingerprint comparison meaningful.
// Like cloning, folding is only meaningful at a cycle boundary, when
// the per-cycle staging (sig, creditsOut) is dead and deliberately
// excluded. The activity masks (NonIdle, Occupied) are derived state —
// functions of the registers folded here — and are excluded for the
// same reason.
//
// A fold costs what was written since the last one. The router's own fold
// is kept while no port of it is written (portDirty); taking it again folds
// one term per port, kept alike, and taking a port's again one term per
// input VC, kept until a write to that VC (foldDirty), and two words of
// output-side registers. So a fold writes the router it folds — its cache,
// and nothing else — and only if the router was written since the last one:
// CloneInto hands its copy the cache complete, and a clone product that is
// never stepped, a campaign's shared snapshot, is folded by any number of
// goroutines without a write.
func (r *Router) FoldState(h uint64) uint64 {
	if r.portDirty != 0 {
		r.refold()
	}
	return statehash.Fold(h, r.fold)
}

// FoldCounts returns how many folds found the router written since the
// one before, and how many input-VC terms they took again, since the
// router was built or cloned.
func (r *Router) FoldCounts() (refolds, terms int64) { return r.refolds, r.termFolds }

// refold takes the written ports' terms again and the router's fold from
// all of them.
func (r *Router) refold() {
	r.refolds++
	h := statehash.Seed
	for p := 0; p < P; p++ {
		if !r.hasPort[p] {
			continue
		}
		if r.portDirty&(1<<uint(p)) != 0 {
			r.portTerms[p] = r.portFold(p)
		}
		h = statehash.Fold(h, r.portTerms[p])
	}
	r.fold, r.portDirty = h, 0
}

// portFold folds port p: its input VCs' terms, the stale ones taken again
// first, then its output side.
func (r *Router) portFold(p int) uint64 {
	terms := &r.vcTerms[p]
	if d := r.foldDirty[p]; d != 0 {
		for w := bitvec.Vec(d); !w.IsZero(); {
			var v int
			v, w = w.NextBit()
			terms[v] = r.vcTerm(p, v)
		}
		r.termFolds += int64(bits.OnesCount32(d))
		r.foldDirty[p] = 0
	}
	h := statehash.Seed
	for _, term := range terms[:r.cfg.VCs] {
		h = statehash.Fold(h, term)
	}
	return r.foldOutputs(p, h)
}

// foldOutputs folds into h what port p holds beside its input VCs: the
// latches and arbiter pointers (portWord), the output VCs' credit counters
// and OutFree/OutTailSent bits at their register widths, as many a word as
// fit, and the flit staged on the port, if any.
func (r *Router) foldOutputs(p int, h uint64) uint64 {
	h = statehash.Fold(h, r.portWord(p))
	crBits := uint(bits.Len32(uint32(r.crMask)))
	st, base, width := &r.st, p*r.st.V, crBits+2
	var word uint64
	var used uint
	for v := 0; v < r.cfg.VCs; v++ {
		if used+width > 64 {
			h = statehash.Fold(h, word)
			word, used = 0, 0
		}
		word |= (uint64(uint32(st.Credits[base+v])) | uint64(st.OutFlags[base+v])<<crBits) << used
		used += width
	}
	h = statehash.Fold(h, word)
	if f := r.arriving[p]; f != nil {
		h = statehash.Fold(h, f.Digest())
	}
	return h
}

// portWord packs port p's latches and arbiter pointers into one word,
// losslessly — every register is stored masked to its hardware width (see
// internal/soa): the VA1 and SA1 winner latches and priority pointers are
// VC indices (VCIDWidth bits), the VA2 and SA2 pointers and the ST output
// latch port indices (DirWidth bits, the latch's idle −1 stored as 0), the
// crossbar column a vector of P bits, the staged credit vector one of VCs.
func (r *Router) portWord(p int) uint64 {
	st := &r.st
	w := uint64(st.VA1Win[p]) | uint64(st.SA1Win[p])<<3 | uint64(st.VA1Next[p])<<6 | uint64(st.SA1Next[p])<<9 |
		uint64(st.VA2Next[p])<<12 | uint64(st.SA2Next[p])<<15 | uint64(st.StOut[p]+1)<<18 |
		uint64(st.StFlags[p])<<21 | uint64(st.StCol[p])<<23 | uint64(st.CreditIn[p])<<32
	if r.arriving[p] != nil {
		w |= 1 << 31
	}
	return w
}

// vcTerm is input VC (p,v)'s term of the fold: the status table's
// registers, the buffered flits and the read and write latches.
func (r *Router) vcTerm(p, v int) uint64 {
	st, vc := &r.st, &r.in[p].vcs[v]
	i := p*st.V + v
	// The status table's narrow registers and the latches' valid bits
	// share a word, the packet id has its own.
	regs := uint64(st.VCState[i]) | uint64(st.VCRoute[i])<<8 | uint64(st.VCOutVC[i])<<16 |
		uint64(uint32(st.Arrived[i]))<<32
	if vc.hasLastRead {
		regs |= 1 << 24
	}
	if vc.hasLastWritten {
		regs |= 1 << 25
	}
	h := statehash.Fold(statehash.Fold(statehash.Seed, regs), st.PktID[i])
	h = statehash.FoldInt(h, len(vc.buf))
	var tail uint64
	for j := range vc.buf {
		s := &vc.buf[j]
		if s.dig == 0 {
			s.dig = s.f.Digest()
		}
		tail = s.dig
		h = statehash.Fold(h, tail)
	}
	// lastRead/lastWritten contents are architectural: a read strobe on an
	// empty buffer replays lastRead (garbage read), and the mixing rule
	// consults lastWritten. The read latch holds the flit of the slot pop
	// took, and has that slot's digest if a fold took it. While the buffer
	// holds a flit its last one is the flit last written, bit for bit (push
	// stores both, and nothing rewrites a buffered flit), and the write
	// latch's digest is that one's.
	if vc.hasLastRead {
		if vc.readDig == 0 {
			vc.readDig = vc.lastRead.Digest()
		}
		h = statehash.Fold(h, vc.readDig)
	}
	if vc.hasLastWritten {
		if len(vc.buf) == 0 {
			tail = vc.lastWritten.Digest()
		}
		h = statehash.Fold(h, tail)
	}
	return h
}
