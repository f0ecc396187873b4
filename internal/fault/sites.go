package fault

import (
	"math/bits"

	"nocalert/internal/topology"
)

// Params describes the micro-architecture dimensions the site enumerator
// needs. It deliberately mirrors the router configuration without
// importing the router package (the router imports fault, not the
// reverse).
type Params struct {
	// Mesh is the network topology; edge and corner routers contribute
	// fewer sites because they lack ports, which is why the paper's 8×8
	// mesh has 11,808 locations rather than 64× the interior count.
	Mesh topology.Mesh
	// VCs is the number of virtual channels per input port.
	VCs int
	// BufDepth is the per-VC buffer depth in flits.
	BufDepth int
}

// BitsFor returns the number of bits needed to encode values 0..max
// (at least 1).
func BitsFor(max int) int {
	if max <= 1 {
		return 1
	}
	return bits.Len(uint(max))
}

// Widths returns the per-kind signal width for the given parameters and
// a port count (vectors indexed by port are portCount wide on routers
// missing ports).
func (p Params) width(k Kind) int {
	switch k {
	case RCInDestX:
		return BitsFor(p.Mesh.W - 1)
	case RCInDestY:
		return BitsFor(p.Mesh.H - 1)
	case RCOutDir, VCRouteReg, VCStateReg:
		return 3
	case VA1Req, VA1Gnt, SA1Req, SA1Gnt, BufRead, BufWrite, CreditSig:
		return p.VCs
	case VA2Req, VA2Gnt, SA2Req, SA2Gnt, XbarSel:
		return int(topology.NumPorts)
	case VA2OutVC, VCOutVCReg, FlitVCIn:
		return BitsFor(p.VCs - 1)
	case FlitKindIn:
		return 2
	case CreditCountReg:
		return BitsFor(p.BufDepth)
	}
	return 0
}

// perInputPort lists the kinds instantiated once per input port.
var perInputPort = []Kind{
	RCInDestX, RCInDestY, RCOutDir,
	VA1Req, VA1Gnt, SA1Req, SA1Gnt,
	BufRead, BufWrite, FlitKindIn, FlitVCIn,
}

// perInputVC lists the kinds instantiated once per (input port, VC).
var perInputVC = []Kind{VCStateReg, VCRouteReg, VCOutVCReg}

// perOutputPort lists the kinds instantiated once per output port.
var perOutputPort = []Kind{
	VA2Req, VA2Gnt, VA2OutVC, SA2Req, SA2Gnt, XbarSel, CreditSig,
}

// perOutputVC lists the kinds instantiated once per (output port, VC).
var perOutputVC = []Kind{CreditCountReg}

// EnumerateRouterSites returns every fault site of the router at node
// id, honouring missing edge/corner ports.
func (p Params) EnumerateRouterSites(id int) []Site {
	var sites []Site
	for d := topology.North; d < topology.NumPorts; d++ {
		if !p.Mesh.HasPort(id, d) {
			continue
		}
		port := int(d)
		for _, k := range perInputPort {
			sites = append(sites, Site{Router: id, Kind: k, Port: port, VC: -1, Width: p.width(k)})
		}
		for vc := 0; vc < p.VCs; vc++ {
			for _, k := range perInputVC {
				sites = append(sites, Site{Router: id, Kind: k, Port: port, VC: vc, Width: p.width(k)})
			}
		}
		for _, k := range perOutputPort {
			sites = append(sites, Site{Router: id, Kind: k, Port: port, VC: -1, Width: p.width(k)})
		}
		for vc := 0; vc < p.VCs; vc++ {
			for _, k := range perOutputVC {
				sites = append(sites, Site{Router: id, Kind: k, Port: port, VC: vc, Width: p.width(k)})
			}
		}
	}
	return sites
}

// RouterBits returns the number of fault bits of the router at node id —
// the widths of EnumerateRouterSites(id), summed — without enumerating
// the sites: every port the router has instantiates the same kinds at
// the same widths.
func (p Params) RouterBits(id int) int {
	perPort := 0
	for _, k := range perInputPort {
		perPort += p.width(k)
	}
	for _, k := range perInputVC {
		perPort += p.VCs * p.width(k)
	}
	for _, k := range perOutputPort {
		perPort += p.width(k)
	}
	for _, k := range perOutputVC {
		perPort += p.VCs * p.width(k)
	}
	ports := 0
	for d := topology.North; d < topology.NumPorts; d++ {
		if p.Mesh.HasPort(id, d) {
			ports++
		}
	}
	return ports * perPort
}

// EnumerateSites returns every fault site in the mesh.
func (p Params) EnumerateSites() []Site {
	var sites []Site
	for id := 0; id < p.Mesh.Nodes(); id++ {
		sites = append(sites, p.EnumerateRouterSites(id)...)
	}
	return sites
}

// BitFaults expands a site into one fault per bit, all injecting at the
// given cycle with the given type.
func BitFaults(s Site, cycle int64, typ Type) []Fault {
	out := make([]Fault, s.Width)
	for b := 0; b < s.Width; b++ {
		out[b] = Fault{Site: s, Bit: b, Cycle: cycle, Type: typ}
	}
	return out
}
