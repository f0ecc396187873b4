package router

import (
	"nocalert/internal/fault"
	"nocalert/internal/flit"
	"nocalert/internal/soa"
)

// CloneInto returns a deep copy of the router under the given fault plane
// (nil for a fault-free continuation), reusing dst's allocations: buffers,
// the SoA window and signal-record slices from a previous clone of the
// same router are adopted instead of reallocated, and buffered flits are
// copied through the optional arena. dst must be a previous CloneInto
// product of this router or a NewCloneTarget shell of the same
// configuration (the network binds fork targets to the fork's shared state
// this way), or nil, in which case a fresh private-state copy is
// allocated. Cloning is only meaningful at a cycle boundary, when the
// per-cycle staging areas are empty. Campaign workers use this to pay the
// 64-router allocation storm once per worker rather than once per fault.
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
	c.routing, c.waitVA, c.held = r.routing, r.waitVA, r.held
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
		slots := d.slots
		*d = *src
		if len(slots) < depth {
			slots = make([]slot, depth)
		}
		for j, s := range src.buf {
			slots[j] = slot{ar.CloneOf(s.f), s.dig}
		}
		d.slots, d.buf = slots, slots[:len(src.buf)]
		// The latches' flits are copied too, so that nothing the copy
		// holds is shared with the source: while the buffer holds a flit
		// the write latch's is its last one, and a drained VC's two latches
		// hold the same flit.
		if n := len(src.buf); n > 0 && src.written.f == src.buf[n-1].f {
			d.written.f = d.buf[n-1].f
		} else if src.written.valid() {
			d.written.f = ar.CloneOf(src.written.f)
		}
		if src.read.f == src.written.f {
			d.read.f = d.written.f
		} else if src.read.valid() {
			d.read.f = ar.CloneOf(src.read.f)
		}
	}
}
