package router

import (
	"math/bits"

	"nocalert/internal/bitvec"
	"nocalert/internal/soa"
	"nocalert/internal/statehash"
)

// FoldState folds the router's live state into a state-fingerprint
// accumulator: everything a step of the router with its own fault window
// closed can read. The rest of what CloneInto copies, the residue, is
// FoldResidue's: every input VC's read latch, an idle, empty VC's route,
// output-VC, packet-id and arrival registers and its write latch, every
// port's VA1 winner latch, and the SA1 winner latch of a port with no read
// enable latched. A step with the window closed writes each of them again
// before it reads it, so a router whose live state is golden's, its window
// closed and its inputs golden's, steps as golden does whatever its residue
// holds (DESIGN.md §3.2 argues it register by register). Both sweep engines
// share this storage and this fold. Like cloning, folding is only
// meaningful at a cycle boundary, when the per-cycle staging (sig,
// creditsOut) is dead and deliberately excluded. The activity masks
// (NonIdle, Occupied) are derived state — functions of the registers
// folded here — and are excluded for the same reason.
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

// FoldResidue folds into h the residue FoldState leaves out, port by port:
// the winner latches that are residue, then every VC's read latch and each
// idle, empty VC's registers and write latch. It keeps no cache and writes
// nothing; a fold that must see the whole router (sim.Network's, for one
// whose fault window can still open) takes both.
func (r *Router) FoldResidue(h uint64) uint64 {
	st := &r.st
	for w := r.ports; !w.IsZero(); {
		var p int
		p, w = w.NextBit()
		latches := uint64(st.VA1Win[p])
		if st.StFlags[p]&soa.StReadEn == 0 {
			latches |= uint64(st.SA1Win[p]) << 32
		}
		h = statehash.Fold(h, latches)
		for v := range r.in[p].vcs {
			vc := &r.in[p].vcs[v]
			h = statehash.FoldBool(h, vc.read.valid())
			if vc.read.valid() {
				h = statehash.Fold(h, vc.read.digest())
			}
			if !r.idleVC(p, v) {
				continue
			}
			h = statehash.Fold(statehash.Fold(h, r.vcRegs(p, v)), st.PktID[p*st.V+v])
			if vc.written.valid() {
				h = statehash.Fold(h, vc.written.digest())
			}
		}
	}
	return h
}

// idleVC reports whether input VC (p,v) is idle and empty, its registers
// and write latch residue: the next write into it under golden inputs is a
// head, which sets all four registers and the latch.
func (r *Router) idleVC(p, v int) bool {
	return r.st.VCState[p*r.st.V+v] == uint8(VCIdle) && len(r.in[p].vcs[v].buf) == 0
}

// idleVCTerm is the fold term of every idle, empty input VC: all of it is
// FoldResidue's, so nothing of it is left to fold.
const idleVCTerm = statehash.Seed

// FoldCounts returns how many folds found the router written since the
// one before, and how many input-VC terms they took again, since the
// router was built or cloned.
func (r *Router) FoldCounts() (refolds, terms int64) { return r.refolds, r.termFolds }

// refold takes the written ports' terms again and the router's fold from
// all of them.
func (r *Router) refold() {
	r.refolds++
	h := statehash.Seed
	for w := r.ports; !w.IsZero(); {
		var p int
		p, w = w.NextBit()
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

// portWord packs port p's live latches and arbiter pointers into one word,
// losslessly — every register is stored masked to its hardware width (see
// internal/soa): the SA1 winner latch while a read enable is latched and
// the SA1 and VA1 priority pointers are VC indices (VCIDWidth bits), the
// VA2 and SA2 pointers and the ST output latch port indices (DirWidth bits,
// the latch's idle −1 stored as 0), the crossbar column a vector of P bits,
// the staged credit vector one of VCs. The VA1 winner latch, and the SA1
// one with no read enable, are residue (FoldResidue).
func (r *Router) portWord(p int) uint64 {
	st := &r.st
	w := uint64(st.SA1Next[p])<<6 | uint64(st.VA1Next[p])<<9 |
		uint64(st.VA2Next[p])<<12 | uint64(st.SA2Next[p])<<15 | uint64(st.StOut[p]+1)<<18 |
		uint64(st.StFlags[p])<<21 | uint64(st.StCol[p])<<23 | uint64(st.CreditIn[p])<<32
	if st.StFlags[p]&soa.StReadEn != 0 {
		w |= uint64(st.SA1Win[p]) << 3
	}
	if r.arriving[p] != nil {
		w |= 1 << 31
	}
	return w
}

// vcRegs packs input VC (p,v)'s narrow status registers and its write
// latch's valid bit into one word; the packet id has a word of its own.
func (r *Router) vcRegs(p, v int) uint64 {
	st := &r.st
	i := p*st.V + v
	regs := uint64(st.VCState[i]) | uint64(st.VCRoute[i])<<8 | uint64(st.VCOutVC[i])<<16 |
		uint64(uint32(st.Arrived[i]))<<32
	if r.in[p].vcs[v].written.valid() {
		regs |= 1 << 25
	}
	return regs
}

// vcTerm is input VC (p,v)'s term of the fold: the status table's
// registers, the buffered flits and the write latch — or, for an idle,
// empty VC, whose registers and latch are residue, idleVCTerm. (The read
// latch is residue on every VC.)
func (r *Router) vcTerm(p, v int) uint64 {
	if r.idleVC(p, v) {
		return idleVCTerm
	}
	vc := &r.in[p].vcs[v]
	h := statehash.Fold(statehash.Fold(statehash.Seed, r.vcRegs(p, v)), r.st.PktID[p*r.st.V+v])
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
	// The write latch's contents are architectural: the mixing rule
	// consults them. While the buffer holds a flit its last one is the flit
	// last written, bit for bit (push stores both, and nothing rewrites a
	// buffered flit), and the latch's digest is that one's.
	if vc.written.valid() {
		if len(vc.buf) == 0 {
			tail = vc.written.digest()
		}
		h = statehash.Fold(h, tail)
	}
	return h
}
