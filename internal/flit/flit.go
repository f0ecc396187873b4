// Package flit defines the units of on-chip transfer: packets and the
// flits they are segmented into. The paper assumes the datapath (flit
// contents) is protected by an error-detecting code, so this package
// also carries a parity EDC over the synthetic payload; NoCAlert itself
// protects only the control fields, which are modelled as explicit
// struct members so the fault plane can corrupt them bit by bit.
package flit

import (
	"fmt"

	"nocalert/internal/statehash"
)

// Kind classifies a flit's position within its packet.
type Kind uint8

const (
	// Head is the first flit of a multi-flit packet. It carries the
	// routing information (destination) and triggers RC and VA.
	Head Kind = iota
	// Body is an interior flit of a multi-flit packet.
	Body
	// Tail is the last flit of a multi-flit packet; it tears down the
	// wormhole as it drains.
	Tail
	// HeadTail is the only flit of a single-flit packet.
	HeadTail
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Head:
		return "H"
	case Body:
		return "B"
	case Tail:
		return "T"
	case HeadTail:
		return "HT"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindAt is the kind of flit seq of a packet of length flits, as Flits
// segments it.
func KindAt(seq, length int) Kind {
	switch {
	case length == 1:
		return HeadTail
	case seq == 0:
		return Head
	case seq == length-1:
		return Tail
	}
	return Body
}

// IsHead reports whether the flit opens a packet (Head or HeadTail).
func (k Kind) IsHead() bool { return k == Head || k == HeadTail }

// IsTail reports whether the flit closes a packet (Tail or HeadTail).
func (k Kind) IsTail() bool { return k == Tail || k == HeadTail }

// Flit is the unit of flow control. Control fields (Kind, VC, the
// destination coordinates) steer the NoC and are the surface NoCAlert
// guards; Payload/EDC stand in for the EDC-protected datapath.
type Flit struct {
	// PacketID identifies the packet this flit belongs to. IDs are
	// unique per simulation run.
	PacketID uint64
	// Seq is the flit's index within its packet, starting at 0.
	Seq int
	// Kind is the flit's position within the packet.
	Kind Kind
	// VC is the virtual channel the flit occupies on the link it most
	// recently traversed (and hence the input VC it is written into).
	VC int
	// Src and Dest are source and destination node ids.
	Src, Dest int
	// DestX and DestY are the destination coordinates carried in the
	// header; the RC unit consumes these (and the fault plane may
	// corrupt them independently of Dest, modelling a fault on the RC
	// input wires).
	DestX, DestY int
	// Class is the protocol-level message class (e.g. request vs
	// response), which selects the VC partition and the fixed packet
	// length (invariance 28).
	Class int
	// Length is the total number of flits in the packet.
	Length int
	// Payload is synthetic datapath content.
	Payload uint64
	// EDC is the error-detecting code sealed over the payload and the
	// in-flight-immutable control fields (see SealEDC).
	EDC uint32
	// InjectedAt is the cycle the packet entered the source NI queue.
	InjectedAt int64
}

// edcCover is the word the error-detecting code protects. Following
// the paper's assumption that the EDC "provides coverage for both the
// payload and the network overhead bits", it spans the payload and the
// control fields that must not change in flight (kind, sequence,
// destination, class) — but not the VC field, which is legitimately
// rewritten at every hop.
func (f *Flit) edcCover() uint64 {
	const mix = 0x9e3779b97f4a7c15 // golden-ratio mixing constant
	w := f.Payload
	w ^= uint64(f.Kind) * mix
	w ^= uint64(f.Seq+1) * (mix >> 8)
	w ^= uint64(f.Dest+1) * (mix >> 16)
	w ^= uint64(f.Class+1) * (mix >> 24)
	return w
}

// edcFold finalizes the cover word into the stored code (a splitmix64
// finalizer folded to 32 bits), so that any change to the covered
// fields flips the code with near-certainty — modelling the "more
// elaborate coding" the paper permits in place of a single parity bit.
func edcFold(w uint64) uint32 {
	w ^= w >> 30
	w *= 0xbf58476d1ce4e5b9
	w ^= w >> 27
	w *= 0x94d049bb133111eb
	w ^= w >> 31
	return uint32(w ^ w>>32)
}

// SealEDC computes and stores the flit's error-detecting code over its
// current contents.
func (f *Flit) SealEDC() { f.EDC = edcFold(f.edcCover()) }

// EDCOK reports whether the flit's error-detecting code checks out; a
// false result models the per-flit EDC firing on corrupted payload or
// overhead bits.
func (f *Flit) EDCOK() bool { return f.EDC == edcFold(f.edcCover()) }

// String renders the flit compactly for traces and test failures.
func (f *Flit) String() string {
	return fmt.Sprintf("p%d.%d%s %d->%d vc%d c%d", f.PacketID, f.Seq, f.Kind, f.Src, f.Dest, f.VC, f.Class)
}

// Packet describes a packet prior to segmentation into flits.
type Packet struct {
	ID         uint64
	Src, Dest  int
	Class      int
	Length     int
	Payload    uint64
	InjectedAt int64
}

// FoldState folds the packet's contents into a state-fingerprint
// accumulator (queued packets awaiting segmentation are architectural
// state just like in-flight flits).
func (p *Packet) FoldState(h uint64) uint64 {
	h = statehash.Fold(h, p.ID)
	h = statehash.FoldInt(h, p.Src)
	h = statehash.FoldInt(h, p.Dest)
	h = statehash.FoldInt(h, p.Class)
	h = statehash.FoldInt(h, p.Length)
	h = statehash.Fold(h, p.Payload)
	h = statehash.Fold(h, uint64(p.InjectedAt))
	return h
}

// Flits segments the packet into its flits. destX, destY are the mesh
// coordinates of the destination, which the header carries for the RC
// units along the path. Single-flit packets yield one HeadTail flit. The
// flits are one allocation, the slice of pointers to them another.
func (p *Packet) Flits(destX, destY int) []*Flit {
	if p.Length < 1 {
		panic(fmt.Sprintf("flit: packet %d has invalid length %d", p.ID, p.Length))
	}
	block := make([]Flit, p.Length)
	out := make([]*Flit, p.Length)
	for i := 0; i < p.Length; i++ {
		payload := p.Payload + uint64(i)
		block[i] = Flit{
			PacketID:   p.ID,
			Seq:        i,
			Kind:       KindAt(i, p.Length),
			Src:        p.Src,
			Dest:       p.Dest,
			DestX:      destX,
			DestY:      destY,
			Class:      p.Class,
			Length:     p.Length,
			Payload:    payload,
			InjectedAt: p.InjectedAt,
		}
		block[i].SealEDC()
		out[i] = &block[i]
	}
	return out
}

// Clone returns a deep copy of the flit.
func (f *Flit) Clone() *Flit {
	c := *f
	return &c
}

// FoldState folds the flit's full contents into a state-fingerprint
// accumulator. Flits travel by pointer and mutate in flight (VC rewrite
// per hop, fault-plane corruption), so their contents — not their
// identity — are architectural state. A nil flit folds a distinct
// sentinel so "no flit" and "zero flit" cannot collide.
//
// The fields are folded into a digest of the flit alone and the digest
// into the accumulator with one step: a router's fold enumerates dozens
// of flits, and their digests, not depending on one another, overlap in
// the processor instead of queueing behind one multiply chain — and a
// holder of a flit value that changes rarely (a router's read and write
// latches) keeps the digest beside it and folds that.
func (f *Flit) FoldState(h uint64) uint64 {
	if f == nil {
		return statehash.Fold(h, 0x6e696c666c6974) // "nilflit"
	}
	return statehash.Fold(h, f.Digest())
}

// Digest hashes the flit's full contents, on their own: FoldState is one
// fold of it into the accumulator. The eight small fields — indices into a
// packet, a port's VCs, the mesh — go sixteen bits each into two words when
// every one of them fits (any flit of a healthy run on a mesh of up to 65 536
// nodes), and the digest is two short chains the processor runs side by
// side; a flit with a field outside that range (negative, or wider) folds
// field by field, so no two flits share a packing.
func (f *Flit) Digest() uint64 {
	d := statehash.Fold(statehash.Fold(statehash.Fold(statehash.Seed, f.PacketID), f.Payload), uint64(f.InjectedAt))
	tag := uint64(f.Kind) | uint64(f.EDC)<<8
	if all := f.Seq | f.VC | f.Src | f.Dest | f.DestX | f.DestY | f.Class | f.Length; uint(all) < 1<<16 {
		p := statehash.Fold(statehash.Seed, uint64(f.Seq)|uint64(f.VC)<<16|uint64(f.Src)<<32|uint64(f.Dest)<<48)
		p = statehash.Fold(p, uint64(f.DestX)|uint64(f.DestY)<<16|uint64(f.Class)<<32|uint64(f.Length)<<48)
		return statehash.Fold(d, statehash.Fold(p, tag))
	}
	for _, v := range [...]int{f.Seq, f.VC, f.Src, f.Dest, f.DestX, f.DestY, f.Class, f.Length} {
		d = statehash.FoldInt(d, v)
	}
	return statehash.Fold(d, tag)
}

// arenaSlabSize is the number of flits per arena slab. A fork of a
// loaded 8×8 mesh clones a few hundred buffered flits, so one or two
// slabs cover a whole campaign run.
const arenaSlabSize = 256

// Arena is a slab-based bump allocator for flits. Fault campaigns fork
// a warmed network once per fault, and each fork deep-copies every
// buffered flit of every router; an Arena lets a worker pay those
// allocations once and recycle them for every subsequent fork. CloneOf
// hands out slots in order; Reset recycles every slot at once.
// All flits obtained from an arena are invalidated by Reset — callers
// must not retain them across it. An Arena is not safe for concurrent
// use; campaigns keep one per worker.
type Arena struct {
	slabs [][]Flit
	slab  int // index of the slab currently being filled
	used  int // slots handed out from the current slab
}

// slot hands out the next slot, holding whatever it held before.
func (a *Arena) slot() *Flit {
	if a.slab == len(a.slabs) {
		a.slabs = append(a.slabs, make([]Flit, arenaSlabSize))
	}
	s := a.slabs[a.slab]
	f := &s[a.used]
	a.used++
	if a.used == len(s) {
		a.slab++
		a.used = 0
	}
	return f
}

// CloneOf returns a copy of f backed by the arena. A nil arena falls
// back to a heap clone, so callers can thread an optional arena without
// branching.
func (a *Arena) CloneOf(f *Flit) *Flit {
	if a == nil {
		return f.Clone()
	}
	c := a.slot()
	*c = *f
	return c
}

// Reset recycles every slot handed out since the last Reset, keeping
// the slabs for reuse. Flits previously returned by CloneOf become
// invalid.
func (a *Arena) Reset() { a.slab, a.used = 0, 0 }
