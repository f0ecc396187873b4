// Package sim assembles routers, links and network interfaces into a
// cycle-accurate mesh NoC and drives the simulation loop. It plays the
// role GARNET plays in the paper: the substrate the NoCAlert checkers,
// the fault-injection campaign and the ForEVeR baseline all plug into.
package sim

import (
	"fmt"
	"math/bits"

	"nocalert/internal/fault"
	"nocalert/internal/flit"
	"nocalert/internal/rng"
	"nocalert/internal/router"
	"nocalert/internal/soa"
	"nocalert/internal/topology"
	"nocalert/internal/traffic"
)

// Config describes a simulation: the router micro-architecture, the
// traffic workload and the random seed.
type Config struct {
	// Router is the per-router micro-architecture.
	Router router.Config
	// Pattern is the traffic pattern; nil means uniform random.
	Pattern traffic.Pattern
	// InjectionRate is the offered load in flits per node per cycle.
	InjectionRate float64
	// ClassWeights optionally biases packet generation among message
	// classes; nil means equal weights.
	ClassWeights []float64
	// Seed seeds all per-node generators.
	Seed uint64
	// DisableSoA selects the reference: every router stepped, every NI
	// ticked and every port and VC visited (router.Router.SetReferenceSweep),
	// every cycle. No command sets it: the lockstep tests hold production to
	// it, and the benchmark's reference step probe (bench/probes.go) times
	// it. The probe goes under ROADMAP.md item 1(b), the field under item
	// 27(c).
	DisableSoA bool
}

// Ejection is one flit delivered to a node's NI, the unit of the
// golden-reference log.
type Ejection struct {
	Node  int
	Cycle int64
	Flit  *flit.Flit
}

// Network is a mesh NoC under simulation.
type Network struct {
	cfg  Config
	rcfg *router.Config
	mesh topology.Mesh
	// nbr is the mesh's neighbour table, built once by New and shared by
	// every clone: entry id*router.P+d is the node through port d of node
	// id, or -1 where the router has no such port (and for Local).
	nbr []int32

	// st owns every router's and NI's register file as flat contiguous
	// arrays; routers and NIs hold per-node views into it. Forks bulk-
	// copy it; the step loop's activity masks live in it.
	st      *soa.State
	routers []*router.Router
	nis     []*NI
	// soaOff mirrors Config.DisableSoA (copied on clone): when set, Step
	// puts every node in the active sets at entry (rebuildAwake), and the
	// routers visit every port (router.Router.SetReferenceSweep).
	soaOff bool
	// awake and niAwake are the active sets, one bit per router and per NI
	// (DESIGN.md §3.2): at every Step entry awake holds every router that
	// is not Inert and niAwake every NI that is not idle (every node, under
	// soaOff). Step visits the set bits only, in ascending id. Whatever
	// stages into a node sets its bit (the wake sites in Step and
	// InjectPacket), Step clears the bit of a node its own turn leaves
	// with nothing to do, and a router that hosts a live fault is woken at
	// Step entry: the sets are exactly those nodes, not a superset.
	// awakeStale is set by whatever else writes nodes — the clone family,
	// a Frontier — and makes the next Step rebuild both sets by one poll.
	awake, niAwake nodeSet
	awakeStale     bool

	monitors []Monitor
	// preRead reports that some attached monitor reads the routers'
	// pre-cycle snapshot (it is not a SignalsOnly): Step takes snapshots
	// only then.
	preRead bool
	plane   *fault.Plane

	cycle     int64
	nextPkt   uint64
	injecting bool
	pktProb   float64

	flitsInjected int64
	flitsEjected  int64
	pktsOffered   int64
	// routerSteps and niTicks count the router cycles Step has run (credit
	// steps included) and the NIs it has ticked since this network was
	// built or cloned.
	routerSteps, niTicks int64

	ejections []Ejection

	// scratch reused across cycles
	ejectScratch []*flit.Flit
	// steppedScratch holds the routers actually stepped this cycle; link
	// traversal and monitor visits iterate it (a skipped router's signal
	// record and credit staging are stale).
	steppedScratch []*router.Router

	// arena backs flit copies when this network is a CloneInto target;
	// it is reset and refilled on every re-fork.
	arena *flit.Arena
	// rec, when non-nil, receives the golden signal transcript of every
	// Step (see record.go). Attached to the golden continuation only;
	// never copied by Clone/CloneInto.
	rec *Recording
	// origin, when non-nil, is the network this one was forked from by
	// CloneLazyInto and still owes its nodes to: a router and NI are valid
	// here only once copyNode has fetched them. Only a Frontier steps such
	// a network.
	origin *Network
}

// New builds a network from the configuration. The fault plane may be
// nil for fault-free operation.
func New(cfg Config, plane *fault.Plane) (*Network, error) {
	if err := cfg.Router.Validate(); err != nil {
		return nil, err
	}
	if !(cfg.InjectionRate >= 0 && cfg.InjectionRate <= 1) { // NaN fails both
		return nil, fmt.Errorf("sim: injection rate %g is not a number of flits per node per cycle in [0, 1]", cfg.InjectionRate)
	}
	if cfg.Pattern == nil {
		cfg.Pattern = traffic.Uniform{}
	}
	n := &Network{cfg: cfg, mesh: cfg.Router.Mesh, plane: plane, injecting: true, nextPkt: 1, soaOff: cfg.DisableSoA}
	rcfg := cfg.Router
	n.rcfg = &rcfg
	nodes := n.mesh.Nodes()
	n.st = soa.NewState(soa.Layout{R: nodes, P: router.P, V: rcfg.VCs})
	n.routers = make([]*router.Router, nodes)
	n.nis = make([]*NI, nodes)
	// A fresh mesh is all asleep: the empty sets are the right ones.
	n.awake, n.niAwake = newNodeSet(nodes), newNodeSet(nodes)
	for i := 0; i < nodes; i++ {
		n.routers[i] = router.NewInState(i, n.rcfg, plane, n.st.View(i))
		n.routers[i].SetReferenceSweep(cfg.DisableSoA)
		nic, nif := n.st.NIView(i)
		n.nis[i] = newNI(i, n.rcfg, cfg.Seed, nic, nif)
	}
	n.nbr = make([]int32, nodes*router.P)
	for i := range n.nbr {
		n.nbr[i] = -1
		if nb, ok := n.mesh.Neighbor(i/router.P, topology.Direction(i%router.P)); ok {
			n.nbr[i] = int32(nb)
		}
	}
	n.pktProb = cfg.InjectionRate / n.meanPacketLen()
	return n, nil
}

// neighbor is topology.Mesh.Neighbor off the table: the node through port
// d of node id, or -1.
func (n *Network) neighbor(id int, d topology.Direction) int { return int(n.nbr[id*router.P+int(d)]) }

// MustNew is New that panics on error, for tests and examples.
func MustNew(cfg Config, plane *fault.Plane) *Network {
	n, err := New(cfg, plane)
	if err != nil {
		panic(err)
	}
	return n
}

func (n *Network) meanPacketLen() float64 {
	w := n.cfg.ClassWeights
	total, weight := 0.0, 0.0
	for c := 0; c < n.rcfg.Classes; c++ {
		wc := 1.0
		if c < len(w) {
			wc = w[c]
		}
		total += wc * float64(n.rcfg.PacketLen(c))
		weight += wc
	}
	if weight == 0 {
		return float64(n.rcfg.PacketLen(0))
	}
	return total / weight
}

// Mesh returns the topology.
func (n *Network) Mesh() topology.Mesh { return n.mesh }

// RouterConfig returns the shared router configuration.
func (n *Network) RouterConfig() *router.Config { return n.rcfg }

// Router returns the router at node id.
func (n *Network) Router(id int) *router.Router { return n.routers[id] }

// Cycle returns the next cycle to be simulated (0 before any Step).
func (n *Network) Cycle() int64 { return n.cycle }

// Ejections returns the full ejection log since cycle 0.
func (n *Network) Ejections() []Ejection { return n.ejections }

// FlitsInjected returns the number of flits that have entered the
// network fabric (NI → router).
func (n *Network) FlitsInjected() int64 { return n.flitsInjected }

// FlitsEjected returns the number of flits delivered to NIs.
func (n *Network) FlitsEjected() int64 { return n.flitsEjected }

// InFlight estimates the flits inside the fabric. Fault-induced drops
// and duplications bias it, which is why campaign runs use a fixed
// horizon instead.
func (n *Network) InFlight() int64 { return n.flitsInjected - n.flitsEjected }

// PacketsOffered returns the number of packets generated so far.
func (n *Network) PacketsOffered() int64 { return n.pktsOffered }

// AttachMonitor registers a monitor for all subsequent cycles.
func (n *Network) AttachMonitor(m Monitor) {
	n.monitors = append(n.monitors, m)
	n.notePreReaders()
}

// notePreReaders recomputes preRead from the attached monitors.
func (n *Network) notePreReaders() {
	n.preRead = false
	for _, m := range n.monitors {
		if _, ok := m.(SignalsOnly); !ok {
			n.preRead = true
		}
	}
}

// RouterSteps returns how many router cycles Step has run on this network
// since it was built or cloned: the awake routers', a credit step
// (router.CreditStep) counting as one; every router's every cycle on the
// reference.
func (n *Network) RouterSteps() int64 { return n.routerSteps }

// NITicks is RouterSteps for the network interfaces.
func (n *Network) NITicks() int64 { return n.niTicks }

// FoldCounts returns how many router folds this network's state folds have
// had to take again since it was built or cloned — the router written since
// the fold before — and how many input-VC terms those took again (see
// router.Router.FoldState): what a fold costs beyond a load per node.
func (n *Network) FoldCounts() (routers, vcTerms int64) {
	for _, r := range n.routers {
		folded, terms := r.FoldCounts()
		routers, vcTerms = routers+folded, vcTerms+terms
	}
	return routers, vcTerms
}

// Monitors returns the attached monitors.
func (n *Network) Monitors() []Monitor { return n.monitors }

// StopInjection stops generating new packets (drain mode). Packets
// already queued at NIs keep streaming.
func (n *Network) StopInjection() { n.injecting = false }

// Step simulates one cycle. A router's signal record (Router.Signals) is
// this cycle's only if the router was stepped, and its Pre only if an
// attached monitor reads snapshots (SignalsOnly).
func (n *Network) Step() {
	if n.origin != nil {
		panic("sim: Step on a network forked by CloneLazyInto; only a Frontier steps it")
	}
	if n.awakeStale || n.soaOff {
		n.rebuildAwake()
	}
	t := n.cycle

	// Packet generation (per-node Bernoulli process).
	if n.injecting && n.pktProb > 0 {
		for id, ni := range n.nis {
			if !ni.gen.Bernoulli(n.pktProb) {
				continue
			}
			class := n.pickClass(ni.gen)
			p := ni.enqueue(&flit.Packet{
				ID:         n.nextPkt,
				Src:        id,
				Dest:       n.cfg.Pattern.Dest(n.mesh, id, ni.gen),
				Class:      class,
				Length:     n.rcfg.PacketLen(class),
				Payload:    ni.gen.Uint64(),
				InjectedAt: t,
			})
			n.nextPkt++
			n.pktsOffered++
			n.niAwake.set(id)
			if n.rec != nil {
				n.rec.recordGen(id, p)
			}
			for _, m := range n.monitors {
				m.PacketInjected(t, id, p)
			}
		}
	}

	// Router pipelines, in ascending id. Step steps the awake routers and
	// no other: stepping an Inert one is a provable no-op (no state write,
	// no signal, no arbiter pointer movement), and at drain or
	// low load most of the mesh is in that state and never looked at. A
	// router found Inert once it has evaluated goes to sleep, until the
	// link traversal or its NI, below, stage something into it. The
	// exception is a router inside its own fault window: a live fault can
	// conjure activity out of an idle router (a register upset needs
	// BeginCycle to apply, an idle credit counter's consult is what marks
	// its fault fired), but only out of the router that hosts it — every
	// plane consult names the consulting router — so the hosts are woken
	// here, cycle by cycle, and a fault armed in one router leaves every
	// other asleep.
	n.steppedScratch = n.steppedScratch[:0]
	if n.plane != nil {
		for id := range n.routers {
			if n.plane.LiveFor(t, id) {
				n.awake.set(id)
			}
		}
	}
	for w, word := range n.awake {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			r := n.routers[w<<6|b]
			n.stepRouter(r, t)
			if r.Inert() {
				n.awake[w] &^= 1 << uint(b)
			}
		}
	}
	stepped := n.steppedScratch

	// Link traversal: distribute departures and credits for cycle t+1.
	// Only stepped routers are visited — a skipped router's signal record
	// and credit staging are leftovers from the last cycle it ran.
	for _, r := range stepped {
		id := r.ID()
		for _, d := range r.Signals().Departures {
			dir := topology.Direction(d.OutPort)
			if dir == topology.Local {
				n.nis[id].flitArrived(d.Flit, t+1)
				n.niAwake.set(id)
				continue
			}
			if nb := n.neighbor(id, dir); nb >= 0 {
				n.routers[nb].StageArrival(dir.Opposite(), d.Flit)
				n.awake.set(nb)
				if n.rec != nil {
					n.rec.recordLink(id, nb, int(dir.Opposite()), d.Flit)
				}
			}
			// A departure through a port the mesh does not have (a
			// fault-driven misroute at an edge router) falls off the
			// fabric: the flit is lost.
		}
		for _, c := range r.Credits() {
			if c.Port == topology.Local {
				n.nis[id].creditArrived(c.VC, t+1)
				n.niAwake.set(id)
				continue
			}
			if nb := n.neighbor(id, c.Port); nb >= 0 {
				n.routers[nb].StageCredit(c.Port.Opposite(), c.VC)
				n.awake.set(nb)
				if n.rec != nil {
					n.rec.recordCredit(id, nb, int(c.Port.Opposite()), c.VC)
				}
			}
		}
	}

	// Monitors observe the completed cycle. Skipped routers are not
	// visited: every monitor is vacuous on an inert router's (empty)
	// signal record, so the observation stream is identical to the
	// reference engine's.
	for _, m := range n.monitors {
		for _, r := range stepped {
			m.RouterCycle(r, r.Signals())
		}
	}

	// Network interfaces, in ascending id: the awake ones. An NI with no
	// credit or arrival in flight, no packet streaming and none queued does
	// nothing in its tick; one left so by its tick goes to sleep, until a
	// generation or its router wakes it.
	for w, word := range n.niAwake {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			id := w<<6 | b
			n.tickNI(id, t)
			if n.nis[id].idle() {
				n.niAwake[w] &^= 1 << uint(b)
			}
		}
	}

	for _, m := range n.monitors {
		m.EndCycle(t)
	}
	n.cycle = t + 1
	if n.rec != nil {
		n.rec.closeCycle(n)
	}
}

// stepRouter runs router r's cycle t and, unless the cycle was a credit
// step, notes it stepped for the link traversal and the monitors. While
// every attached monitor is a SignalsOnly a cycle outside the router's
// fault window is quiet (router.BeginUnobserved): it takes no snapshot and writes of its record
// only what those monitors and the links read, and a router with nothing
// to do but absorb returning credits does that alone (router.CreditStep).
func (n *Network) stepRouter(r *router.Router, t int64) {
	n.routerSteps++
	if n.preRead {
		r.BeginCycle(t)
	} else {
		r.BeginUnobserved(t)
		if r.CreditStep(t) {
			return
		}
	}
	r.Evaluate(t)
	n.steppedScratch = append(n.steppedScratch, r)
}

// tickNI runs node id's NI for cycle t: the flit it sends and the credits
// its ejections return are staged into the node's router, which wakes it.
func (n *Network) tickNI(id int, t int64) {
	n.niTicks++
	n.ejectScratch = n.ejectScratch[:0]
	sent, credited := n.nis[id].tickInject(t, n.routers[id], &n.ejectScratch)
	if sent {
		n.flitsInjected++
		if n.rec != nil {
			n.rec.recordSend(id)
		}
	}
	if sent || credited {
		n.awake.set(id)
	}
	for _, f := range n.ejectScratch {
		n.flitsEjected++
		n.ejections = append(n.ejections, Ejection{Node: id, Cycle: t, Flit: f})
		if n.rec != nil {
			n.rec.recordEject(id, f)
		}
		for _, m := range n.monitors {
			m.FlitEjected(t, id, f)
		}
	}
}

func (n *Network) pickClass(g *rng.PCG) int {
	if n.rcfg.Classes == 1 {
		return 0
	}
	w := n.cfg.ClassWeights
	if len(w) == 0 {
		return g.Intn(n.rcfg.Classes)
	}
	total := 0.0
	for c := 0; c < n.rcfg.Classes; c++ {
		if c < len(w) {
			total += w[c]
		}
	}
	if total <= 0 {
		return g.Intn(n.rcfg.Classes)
	}
	x := g.Float64() * total
	for c := 0; c < n.rcfg.Classes; c++ {
		if c < len(w) {
			x -= w[c]
		}
		if x < 0 {
			return c
		}
	}
	return n.rcfg.Classes - 1
}

// Run simulates the given number of cycles.
func (n *Network) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		n.Step()
	}
}

// Drain stops injection and runs until the fabric is empty or deadline
// cycles have elapsed, returning true if the network drained.
func (n *Network) Drain(deadline int64) bool {
	n.StopInjection()
	end := n.cycle + deadline
	for n.cycle < end {
		if n.InFlight() <= 0 && n.allNIsIdle() {
			return true
		}
		n.Step()
	}
	return n.InFlight() <= 0 && n.allNIsIdle()
}

func (n *Network) allNIsIdle() bool {
	for _, ni := range n.nis {
		if ni.busy() {
			return false
		}
	}
	return true
}

// Quiet reports whether the fabric is empty and every NI is idle — the
// condition Drain polls for. Exposed so campaign loops that interleave
// their own per-cycle probes with the drain can reproduce Drain's exit
// condition exactly.
func (n *Network) Quiet() bool {
	return n.InFlight() <= 0 && n.allNIsIdle()
}

// ResetEjections truncates the ejection log without touching the
// flit-ejected counter. A campaign's golden mainline calls this after
// every step: nothing reads its ejections, and the counters keep their
// absolute values for fingerprint comparisons.
func (n *Network) ResetEjections() {
	n.ejections = n.ejections[:0]
}

// ApproxFootprintBytes estimates the memory one full-state snapshot of
// this network retains: flit-slot capacity for every router buffer plus
// per-router and per-NI bookkeeping. It is a deterministic,
// configuration-derived capacity estimate (what a campaign's golden
// snapshots account against campaign_snapshot_bytes), not a heap
// measurement.
func (n *Network) ApproxFootprintBytes() int64 {
	const (
		flitBytes   = 96  // flit.Flit plus arena/slice overhead
		routerFixed = 640 // pipeline registers, arbiters, signal scratch
		niFixed     = 256 // credit bookkeeping, RNG, queue headers
	)
	nodes := int64(len(n.routers))
	slots := int64(router.P) * int64(n.rcfg.VCs) * int64(n.rcfg.BufDepth)
	perRouter := slots*flitBytes + routerFixed
	perNI := int64(n.rcfg.VCs)*32 + niFixed
	total := nodes * (perRouter + perNI)
	// An attached golden signal transcript is part of this network's
	// retained state; campaigns surface it through the same accounting
	// their snapshots use.
	total += n.rec.ApproxFootprintBytes()
	return total
}

// newCloneShell builds an empty network whose routers and NIs are
// clone targets bound to a fresh shared SoA state of this network's
// geometry; Clone and CloneInto fill it in.
func (n *Network) newCloneShell() *Network {
	c := &Network{}
	c.st = soa.NewState(soa.Layout{R: len(n.routers), P: router.P, V: n.rcfg.VCs})
	c.routers = make([]*router.Router, len(n.routers))
	c.nis = make([]*NI, len(n.nis))
	c.awake, c.niAwake = newNodeSet(len(n.routers)), newNodeSet(len(n.nis))
	for i := range c.routers {
		c.routers[i] = router.NewCloneTarget(n.rcfg, c.st.View(i))
		nic, nif := c.st.NIView(i)
		c.nis[i] = niCloneTarget(nic, nif)
	}
	return c
}

// copyScalars copies the network-level scalar state from n into c.
func (c *Network) copyScalars(n *Network, plane *fault.Plane) {
	c.cfg = n.cfg
	c.rcfg = n.rcfg
	c.mesh, c.nbr = n.mesh, n.nbr
	c.plane = plane
	c.soaOff = n.soaOff
	c.cycle = n.cycle
	c.nextPkt = n.nextPkt
	c.injecting = n.injecting
	c.pktProb = n.pktProb
	c.flitsInjected = n.flitsInjected
	c.flitsEjected = n.flitsEjected
	c.pktsOffered = n.pktsOffered
	c.routerSteps, c.niTicks = 0, 0
}

// Clone deep-copies the network for a forked continuation under the
// given fault plane (nil for a fault-free fork). Attached monitors are
// carried over only when they implement CloneableMonitor.
func (n *Network) Clone(plane *fault.Plane) *Network {
	c := n.newCloneShell()
	c.copyScalars(n, plane)
	for i := range n.routers {
		c.copyNodeFrom(n, i)
	}
	c.ejections = append([]Ejection(nil), n.ejections...)
	c.cloneMonitors(n)
	return c
}

// cloneMonitors replaces c's monitors by clones of those of n's that can
// be cloned (CloneableMonitor), reusing the slice.
func (c *Network) cloneMonitors(n *Network) {
	c.monitors = c.monitors[:0]
	for _, m := range n.monitors {
		if cm, ok := m.(CloneableMonitor); ok {
			c.monitors = append(c.monitors, cm.CloneMonitor())
		}
	}
	c.notePreReaders()
}

// CloneInto is Clone reusing dst's allocations: routers, NIs, buffers
// and arbiters from a previous fork are overwritten in place, and all
// flit copies go through a per-clone arena that is recycled on every
// call. dst must be a previous CloneInto or CloneLazyInto product of this
// network (or nil, in which case a fresh reusable clone is allocated);
// the caller must be done with dst's previous contents, including any
// flits it handed out. Returns dst.
//
// Two deliberate differences from Clone: the copy's ejection log starts
// empty (every pre-fork ejection happened strictly before the fork
// cycle, and campaign comparisons only consider post-fork ejections),
// and monitors are re-cloned into a reused slice. Campaign workers use
// CloneInto to pay the per-fork allocation storm once per worker
// instead of once per fault.
func (n *Network) CloneInto(dst *Network, plane *fault.Plane) *Network {
	c := n.CloneLazyInto(dst, plane)
	c.origin = nil
	for i := range n.routers {
		c.copyNodeFrom(n, i)
	}
	return c
}

// CloneLazyInto is CloneInto short of the nodes: the copy takes the
// network-level state — cycle, counters, injection phase, the plane, the
// re-cloned monitors, an empty log, a reset arena — and remembers n as
// the place its routers and NIs are still to come from. Whatever dst's
// nodes held before stays where it is, stale, until a node is fetched. It
// is the fork for a run a Frontier steps from here, which fetches the
// nodes it tracks and reads no others (see Frontier); nothing else can
// step the copy, and n must not move on while the copy owes it nodes.
// Frontier.MaterializeAll makes the copy whole.
func (n *Network) CloneLazyInto(dst *Network, plane *fault.Plane) *Network {
	c := dst
	if c == nil {
		c = n.newCloneShell()
		c.arena = &flit.Arena{}
	}
	c.arena.Reset()
	c.copyScalars(n, plane)
	c.origin = n
	c.ejections = c.ejections[:0]
	c.ejectScratch = c.ejectScratch[:0]
	c.cloneMonitors(n)
	return c
}

// copyNodeFrom overwrites node i with src's, bound to this network's
// plane and drawing flit copies from its arena (none, for a Clone). The
// active sets know nothing of the node that arrives: the next Step polls.
func (c *Network) copyNodeFrom(src *Network, i int) {
	c.routers[i] = src.routers[i].CloneInto(c.routers[i], c.plane, c.arena)
	c.nis[i] = src.nis[i].cloneInto(c.nis[i], c.arena)
	c.awakeStale = true
}

// copyNode fetches node i from the network a lazy fork was taken from
// and reports whether there was anything to fetch: a whole network has
// every node already.
func (c *Network) copyNode(i int) bool {
	if c.origin == nil {
		return false
	}
	c.copyNodeFrom(c.origin, i)
	return true
}
