package router

import "nocalert/internal/statehash"

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
// same reason. A fold takes the digest of every latch written since the
// last one (inVC.takeDigests): it writes the router's digest cache, and
// nothing else.
func (r *Router) FoldState(h uint64) uint64 {
	st := &r.st
	for p := 0; p < P; p++ {
		h = statehash.Fold(h, pack32(st.VA1Win[p], int32(st.StCol[p])))
		h = statehash.Fold(h, pack32(st.StOut[p], int32(st.StFlags[p])))
	}
	for p := 0; p < P; p++ {
		if !r.hasPort[p] {
			continue
		}
		ip := &r.in[p]
		base := p * st.V
		h = statehash.Fold(h, pack32(st.SA1Win[p], int32(st.CreditIn[p])))
		for i := range ip.vcs {
			v := &ip.vcs[i]
			ri := base + i
			// The status table's narrow registers and the latches' valid
			// bits share a word, the packet id has its own.
			regs := uint64(st.VCState[ri]) | uint64(st.VCRoute[ri])<<8 | uint64(st.VCOutVC[ri])<<16 |
				uint64(uint32(st.Arrived[ri]))<<32
			if v.hasLastRead {
				regs |= 1 << 24
			}
			if v.hasLastWritten {
				regs |= 1 << 25
			}
			h = statehash.Fold(h, regs)
			h = statehash.Fold(h, st.PktID[ri])
			h = statehash.FoldInt(h, len(v.buf))
			for _, f := range v.buf {
				h = f.FoldState(h)
			}
			// lastRead/lastWritten contents are architectural: a read
			// strobe on an empty buffer replays lastRead (garbage read),
			// and the mixing rule consults lastWritten. Folding a latch's
			// digest is what its flit's FoldState would do.
			v.takeDigests()
			if v.hasLastRead {
				h = statehash.Fold(h, v.lastReadDigest)
			}
			if v.hasLastWritten {
				h = statehash.Fold(h, v.lastWrittenDigest)
			}
		}
		for i := 0; i < r.cfg.VCs; i++ {
			h = statehash.Fold(h, pack32(st.Credits[base+i], int32(st.OutFlags[base+i])))
		}
		h = statehash.Fold(h, pack32(st.VA1Next[p], st.SA1Next[p]))
		h = statehash.Fold(h, pack32(st.VA2Next[p], st.SA2Next[p]))
		h = r.arriving[p].FoldState(h)
	}
	return h
}

// pack32 puts two of the register file's 32-bit words (or narrower ones,
// widened) in one fold word, losslessly: a fold's steps each wait for
// the one before, so a router's fold costs what it has words.
func pack32(lo, hi int32) uint64 { return uint64(uint32(lo)) | uint64(uint32(hi))<<32 }

// takeDigests brings the digest cache of the VC's valid latches up to
// date: a latch written since its digest was last taken is hashed now.
func (v *inVC) takeDigests() {
	if v.hasLastRead && !v.readDigestOK {
		v.lastReadDigest, v.readDigestOK = v.lastRead.Digest(), true
	}
	if v.hasLastWritten && !v.writtenDigestOK {
		v.lastWrittenDigest, v.writtenDigestOK = v.lastWritten.Digest(), true
	}
}
