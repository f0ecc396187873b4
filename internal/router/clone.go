package router

import (
	"nocalert/internal/fault"
	"nocalert/internal/flit"
	"nocalert/internal/soa"
)

// Clone returns a deep copy of the router using the given fault plane
// (nil for a fault-free continuation). The copy is backed by a private
// single-router SoA state and shares only the immutable configuration
// with the original. Cloning is only meaningful at a cycle boundary —
// after the network has collected departures and credits — when the
// per-cycle staging areas are empty; campaigns rely on this to fork
// thousands of faulty continuations from one warmed network.
func (r *Router) Clone(plane *fault.Plane) *Router {
	return r.CloneInto(nil, plane, nil)
}

// CloneInto is Clone reusing dst's allocations: buffers, the SoA window
// and signal-record slices from a previous clone of the same router are
// adopted instead of reallocated, and buffered flits are copied through
// the optional arena. dst must be a previous CloneInto/Clone product of
// this router or a NewCloneTarget shell of the same configuration (the
// network binds fork targets to the fork's shared state this way), or
// nil, in which case a fresh private-state copy is allocated. Campaign
// workers use this to pay the 64-router allocation storm once per
// worker rather than once per fault.
func (r *Router) CloneInto(dst *Router, plane *fault.Plane, ar *flit.Arena) *Router {
	c := dst
	if c == nil {
		st := soa.NewState(soa.Layout{R: 1, P: P, V: r.cfg.VCs})
		c = NewCloneTarget(r.cfg, st.View(0))
	}
	c.id, c.x, c.y, c.cfg = r.id, r.x, r.y, r.cfg
	c.crMask, c.vcClass = r.crMask, r.vcClass
	c.ports, c.vcMask = r.ports, r.vcMask
	c.staged, c.latchedRows, c.latchedCols = r.staged, r.latchedRows, r.latchedCols
	c.plane = plane
	c.sweepRef = r.sweepRef
	c.preFull = true // dst's snapshot is of whatever it held before
	c.vcTerms, c.foldDirty, c.portTerms, c.portDirty, c.fold = r.vcTerms, r.foldDirty, r.portTerms, r.portDirty, r.fold
	c.refolds, c.termFolds = 0, 0
	// The whole register file — VC status tables, credits, ST latches,
	// arbiter pointers, activity masks — is a handful of bulk copies.
	c.st.CopyFrom(r.st)
	c.creditsOut = c.creditsOut[:0]
	for w := r.ports; !w.IsZero(); {
		var p int
		p, w = w.NextBit()
		r.in[p].cloneInto(&c.in[p], r.cfg.BufDepth, ar)
		if f := r.arriving[p]; f != nil {
			c.arriving[p] = ar.CloneOf(f)
		} else {
			c.arriving[p] = nil
		}
	}
	// What r has folded since it was last written travelled above; the copy
	// takes the rest, from its own registers: it may be folded where it must
	// not be written, and r, which others may be cloning too, is only read.
	if c.portDirty != 0 {
		c.refold()
	}
	return c
}

// cloneInto deep-copies the input port's pointer residue (flit buffers
// and read/write latches) into dst, reusing dst's VC and buffer slices
// where capacity allows. The scalar registers travel with the SoA bulk
// copy instead.
func (ip *inputPort) cloneInto(dst *inputPort, depth int, ar *flit.Arena) {
	if cap(dst.vcs) < len(ip.vcs) {
		dst.vcs = make([]inVC, len(ip.vcs))
	}
	dst.vcs = dst.vcs[:len(ip.vcs)]
	for i := range ip.vcs {
		src := &ip.vcs[i]
		d := &dst.vcs[i]
		buf := d.buf
		*d = *src
		if cap(buf) < depth {
			buf = make([]slot, depth)
		}
		buf = buf[:len(src.buf)]
		for j, s := range src.buf {
			buf[j] = slot{ar.CloneOf(s.f), s.dig}
		}
		d.buf = buf
		// lastRead/lastWritten are value snapshots; *d = *src above
		// already copied them.
	}
}
