package sim

import (
	"nocalert/internal/flit"
	"nocalert/internal/rng"
	"nocalert/internal/router"
	"nocalert/internal/soa"
	"nocalert/internal/topology"
)

// The NI's per-VC credit bookkeeping — the mirror of what an upstream
// router keeps for a downstream input port — lives in the network's
// structure-of-arrays state: outCredits[v] is the credit counter and
// outFlags[v] carries the soa.NIFree/soa.NITailSent bits. The NI holds
// its node's windows so network forks clone this state with the same
// bulk copies that clone the routers'.

// niArrival is a flit in flight on the router→NI ejection link.
type niArrival struct {
	f     *flit.Flit
	cycle int64 // cycle the NI may process it
}

// niCredit is a credit in flight on the router→NI credit link.
type niCredit struct {
	vc    int
	cycle int64
}

// NI is a node's network interface: it packetizes traffic into flits,
// streams them into the router's local input port under credit flow
// control, and ejects arriving flits.
type NI struct {
	node int
	cfg  *router.Config
	gen  *rng.PCG

	// Injection side.
	queue []*flit.Packet // packets waiting for a VC
	cur   []*flit.Flit   // flits of the packet currently streaming
	curVC int
	// outCredits/outFlags are this node's SoA windows (see above).
	outCredits []int32
	outFlags   []uint8
	// pktSlab backs queue entries in CloneInto targets so re-forks reuse
	// packet storage instead of allocating per queued packet.
	pktSlab []flit.Packet
	// Ejection side.
	inbox   []niArrival
	credits []niCredit

	// body caches foldBody, good while bodyOK: until the NI is ticked or
	// handed a packet. (A credit or a flit from its router comes in a
	// cycle's link traversal, ahead of the NI's tick of that cycle.) As with
	// a router's fold cache, a fold writes it only if the NI was written
	// since the last one, and cloneInto hands the copy a cache that is
	// complete.
	body   uint64
	bodyOK bool
}

// newNI builds the NI for node, bound to the given SoA windows; nil
// windows allocate private storage (standalone/test use).
func newNI(node int, cfg *router.Config, seed uint64, outCredits []int32, outFlags []uint8) *NI {
	ni := &NI{node: node, cfg: cfg, gen: rng.New(seed, uint64(node)*2+1), curVC: -1}
	if outCredits == nil {
		outCredits = make([]int32, cfg.VCs)
	}
	if outFlags == nil {
		outFlags = make([]uint8, cfg.VCs)
	}
	ni.outCredits, ni.outFlags = outCredits, outFlags
	for v := 0; v < cfg.VCs; v++ {
		ni.outCredits[v] = int32(cfg.BufDepth)
		ni.outFlags[v] = soa.NIFree
	}
	return ni
}

// niCloneTarget returns an empty NI shell bound to the given SoA
// windows, suitable only as a cloneInto destination.
func niCloneTarget(outCredits []int32, outFlags []uint8) *NI {
	return &NI{gen: new(rng.PCG), outCredits: outCredits, outFlags: outFlags}
}

// busy reports whether the NI holds work Quiet must wait for: a queued
// packet, a packet mid-injection or an arrival not yet ejected.
func (ni *NI) busy() bool { return len(ni.queue) > 0 || len(ni.cur) > 0 || len(ni.inbox) > 0 }

// idle reports whether a tick would do nothing at all: nothing busy waits
// for, and no credit on its way in either.
func (ni *NI) idle() bool { return !ni.busy() && len(ni.credits) == 0 }

// enqueue accepts a packet for injection.
func (ni *NI) enqueue(p *flit.Packet) {
	ni.queue = append(ni.queue, p)
	ni.bodyOK = false
}

// creditArrived registers a credit returned by the router for local
// input VC vc, usable from the given cycle.
func (ni *NI) creditArrived(vc int, cycle int64) {
	ni.credits = append(ni.credits, niCredit{vc: vc, cycle: cycle})
}

// flitArrived registers a flit on the ejection link, visible to the NI
// from the given cycle.
func (ni *NI) flitArrived(f *flit.Flit, cycle int64) {
	ni.inbox = append(ni.inbox, niArrival{f: f, cycle: cycle})
}

// tickInject runs one NI cycle: absorb matured credits, eject matured
// arrivals (returning ejection-buffer credits to the router's local
// output port), and push at most one flit into the router. Ejected
// flits are appended to *ejected; sent reports whether a flit was
// injected into the router this cycle, credited whether an ejection
// returned it a credit — the two ways a tick stages into the router.
func (ni *NI) tickInject(cycle int64, r *router.Router, ejected *[]*flit.Flit) (sent, credited bool) {
	ni.bodyOK = false
	// Credits from the router's local input port.
	kept := ni.credits[:0]
	for _, c := range ni.credits {
		if c.cycle > cycle {
			kept = append(kept, c)
			continue
		}
		if c.vc < 0 || c.vc >= len(ni.outCredits) {
			continue
		}
		if int(ni.outCredits[c.vc]) < ni.cfg.BufDepth {
			ni.outCredits[c.vc]++
		}
		fl := ni.outFlags[c.vc]
		if fl&soa.NITailSent != 0 && fl&soa.NIFree == 0 && int(ni.outCredits[c.vc]) >= ni.cfg.BufDepth {
			ni.outFlags[c.vc] = (fl | soa.NIFree) &^ soa.NITailSent
		}
	}
	ni.credits = kept

	// Ejection: the NI drains its receive buffers every cycle, so each
	// arriving flit is consumed immediately and its buffer slot credit
	// returns to the router's local output port one cycle later.
	keptIn := ni.inbox[:0]
	for _, a := range ni.inbox {
		if a.cycle > cycle {
			keptIn = append(keptIn, a)
			continue
		}
		*ejected = append(*ejected, a.f)
		if a.f.VC >= 0 && a.f.VC < ni.cfg.VCs {
			r.StageCredit(topology.Local, a.f.VC)
			credited = true
		}
	}
	ni.inbox = keptIn

	// Injection: start a new packet if idle, then stream one flit.
	if len(ni.cur) == 0 && len(ni.queue) > 0 {
		p := ni.queue[0]
		vc := ni.pickFreeVC(p.Class)
		if vc >= 0 {
			ni.queue = ni.queue[1:]
			dx, dy := ni.cfg.Mesh.Coords(p.Dest)
			ni.cur = p.Flits(dx, dy)
			ni.curVC = vc
			ni.outFlags[vc] &^= soa.NIFree | soa.NITailSent
		}
	}
	if len(ni.cur) > 0 {
		if ni.outCredits[ni.curVC] > 0 {
			f := ni.cur[0]
			ni.cur = ni.cur[1:]
			f.VC = ni.curVC
			ni.outCredits[ni.curVC]--
			if f.Kind.IsTail() {
				ni.outFlags[ni.curVC] |= soa.NITailSent
			}
			r.StageArrival(topology.Local, f)
			sent = true
		}
	}
	return sent, credited
}

// pickFreeVC returns the lowest free local-input VC in the class, or -1.
func (ni *NI) pickFreeVC(class int) int {
	lo, hi := ni.cfg.VCRange(class)
	for v := lo; v < hi; v++ {
		if ni.outFlags[v]&soa.NIFree != 0 {
			return v
		}
	}
	return -1
}

// cloneInto deep-copies the NI into dst (nil allocates a fresh copy),
// reusing dst's slices and drawing flit copies from the optional arena.
// Queued packets are copied into a per-NI slab so re-forks allocate
// nothing.
func (ni *NI) cloneInto(dst *NI, ar *flit.Arena) *NI {
	c := dst
	if c == nil {
		c = niCloneTarget(make([]int32, len(ni.outCredits)), make([]uint8, len(ni.outFlags)))
		c.gen = ni.gen.Clone()
	} else {
		*c.gen = *ni.gen
	}
	c.node = ni.node
	c.cfg = ni.cfg
	c.curVC = ni.curVC
	if cap(c.pktSlab) < len(ni.queue) {
		c.pktSlab = make([]flit.Packet, len(ni.queue))
	}
	c.pktSlab = c.pktSlab[:len(ni.queue)]
	c.queue = c.queue[:0]
	for i, p := range ni.queue {
		c.pktSlab[i] = *p
		c.queue = append(c.queue, &c.pktSlab[i])
	}
	c.cur = c.cur[:0]
	for _, f := range ni.cur {
		c.cur = append(c.cur, ar.CloneOf(f))
	}
	copy(c.outCredits, ni.outCredits)
	copy(c.outFlags, ni.outFlags)
	c.inbox = c.inbox[:0]
	for _, a := range ni.inbox {
		c.inbox = append(c.inbox, niArrival{f: ar.CloneOf(a.f), cycle: a.cycle})
	}
	c.credits = append(c.credits[:0], ni.credits...)
	if c.body, c.bodyOK = ni.body, ni.bodyOK; !c.bodyOK {
		c.body, c.bodyOK = c.foldBody(), true
	}
	return c
}
