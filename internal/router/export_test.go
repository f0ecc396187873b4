package router

import (
	"nocalert/internal/fault"
	"nocalert/internal/flit"
	"nocalert/internal/topology"
)

// Accessors the router's own tests use; no production caller needs them.

// Clone returns a deep copy of the router, backed by a private
// single-router SoA state, under the given fault plane.
func (r *Router) Clone(plane *fault.Plane) *Router {
	return r.CloneInto(nil, plane, nil)
}

// Config returns the shared router configuration.
func (r *Router) Config() *Config { return r.cfg }

// HasPort reports whether the router has the given port.
func (r *Router) HasPort(d topology.Direction) bool { return r.ports.Get(int(d)) }

// SetPlane replaces the fault plane.
func (r *Router) SetPlane(p *fault.Plane) { r.plane = p }

// What the external residue test (residue_test.go) reaches past the
// router's API for: the registers FoldResidue covers, to scribble and to
// compare.

// ScribbleResidue overwrites the residue of r with values drawn from next,
// each at its register's width, and marks every write as one (wrote, touch):
// every VC's read latch, every idle, empty VC's route, output-VC, packet-id
// and arrival registers and write latch, every port's VA1 winner latch, and
// the SA1 winner latch of every port with no read enable latched.
func ScribbleResidue(r *Router, next func() uint64) {
	st := &r.st
	for w := r.ports; !w.IsZero(); {
		var p int
		p, w = w.NextBit()
		st.VA1Win[p] = int32(next() % MaxVCs)
		if !r.latchedRows.Get(p) {
			st.SA1Win[p] = int32(next() % MaxVCs)
		}
		r.touch(p)
		for v := range r.in[p].vcs {
			vc := &r.in[p].vcs[v]
			vc.read = scribbledLatch(next)
			if r.idleVC(p, v) {
				i := r.iv(p, v)
				st.VCRoute[i] = uint8(next() % (1 << DirWidth))
				st.VCOutVC[i] = uint8(next() % MaxVCs)
				st.PktID[i] = next()
				st.Arrived[i] = int32(next() % 32)
				vc.written = scribbledLatch(next)
			}
			r.wrote(p, v)
		}
	}
}

// scribbledLatch is a latch holding a scribbled flit, or, one time in four,
// none.
func scribbledLatch(next func() uint64) latch {
	f := scribbledFlit(next)
	if next()%4 == 0 {
		return latch{}
	}
	var l latch
	l.set(&f)
	return l
}

func scribbledFlit(next func() uint64) flit.Flit {
	return flit.Flit{
		PacketID: next(), Seq: int(next() % 8), Kind: flit.Kind(next() % 4), VC: int(next() % MaxVCs),
		Src: int(next() % 64), Dest: int(next() % 64), DestX: int(next() % 8), DestY: int(next() % 8),
		Length: int(next()%8) + 1, Payload: next(), EDC: uint32(next()), InjectedAt: int64(next() % 1000),
	}
}

// ResidueRegs is a copy of an input VC's registers that can be residue: the
// four registers and the write latch, residue while the VC is idle and
// empty, and the read latch, residue always.
type ResidueRegs struct {
	Route, OutVC        uint8
	PktID               uint64
	Arrived             int32
	Read, Written       flit.Flit
	HasRead, HasWritten bool
}

// VCResidue returns input VC (p,v)'s residue registers, whatever state the
// VC is in.
func VCResidue(r *Router, p, v int) ResidueRegs {
	i, vc := r.iv(p, v), &r.in[p].vcs[v]
	regs := ResidueRegs{
		Route: r.st.VCRoute[i], OutVC: r.st.VCOutVC[i], PktID: r.st.PktID[i], Arrived: r.st.Arrived[i],
		HasRead: vc.read.valid(), HasWritten: vc.written.valid(),
	}
	if regs.HasRead {
		regs.Read = vc.read.value()
	}
	if regs.HasWritten {
		regs.Written = vc.written.value()
	}
	return regs
}

// WinnerLatches returns port p's VA1 and SA1 winner latches.
func WinnerLatches(r *Router, p int) [2]int32 { return [2]int32{r.st.VA1Win[p], r.st.SA1Win[p]} }

// IdleVC reports whether input VC (p,v) is idle and empty.
func IdleVC(r *Router, p, v int) bool { return r.idleVC(p, v) }
