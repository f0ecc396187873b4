// Package nocalert is a from-scratch reproduction of "NoCAlert: An
// On-Line and Real-Time Fault Detection Mechanism for Network-on-Chip
// Architectures" (Prodromou, Panteli, Nicopoulos & Sazeides, MICRO
// 2012).
//
// It bundles, behind one import:
//
//   - a cycle-accurate simulator of the paper's baseline NoC: a 2D mesh
//     of five-stage pipelined, wormhole-switched, credit-flow-controlled
//     virtual-channel routers (the role GARNET plays in the paper);
//   - the NoCAlert mechanism itself: the 32 invariance checkers of the
//     paper's Table 1, running concurrently with — and never perturbing
//     — network operation;
//   - the paper's single-bit fault model with per-signal fault sites at
//     every control-module boundary, plus permanent and intermittent
//     extensions;
//   - the Golden Reference methodology classifying every injected fault
//     as a true/false positive/negative;
//   - the ForEVeR baseline (checker network + epochs + Allocation
//     Comparator) NoCAlert is compared against;
//   - an analytical gate-equivalent hardware model standing in for the
//     paper's 65 nm synthesis flow (Figure 10);
//   - a campaign orchestrator regenerating Figures 6–9 and
//     Observations 1–5.
//
// # Quick start
//
//	mesh := nocalert.NewMesh(8, 8)
//	cfg := nocalert.SimConfig{
//		Router:        nocalert.DefaultRouterConfig(mesh),
//		InjectionRate: 0.1,
//		Seed:          1,
//	}
//	n := nocalert.MustNewNetwork(cfg, nil)
//	eng := nocalert.NewEngine(n.RouterConfig(), nocalert.EngineOptions{})
//	n.AttachMonitor(eng)
//	n.Run(10000)
//	fmt.Println("assertions:", eng.Detected())
//
// See the examples/ directory for runnable scenarios, cmd/ for the
// experiment drivers, and DESIGN.md for the full system inventory.
package nocalert

import (
	"fmt"
	"io"
	"strings"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/core"
	"nocalert/internal/diagnose"
	"nocalert/internal/fault"
	"nocalert/internal/forever"
	"nocalert/internal/hwmodel"
	"nocalert/internal/metrics"
	"nocalert/internal/obs"
	"nocalert/internal/router"
	"nocalert/internal/routing"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
	"nocalert/internal/trace"
	"nocalert/internal/traffic"
)

// ---- Topology ----

// Mesh is a W×H 2D mesh; node ids are row-major from the bottom-left
// corner.
type Mesh = topology.Mesh

// Direction identifies a router port (North, South, East, West, Local).
type Direction = topology.Direction

// Port directions, re-exported from the topology package.
const (
	North = topology.North
	South = topology.South
	East  = topology.East
	West  = topology.West
	Local = topology.Local
)

// NewMesh returns a W×H mesh; it panics if either dimension is < 1.
func NewMesh(w, h int) Mesh { return topology.NewMesh(w, h) }

// ParseMesh parses a "WxH" mesh specification (e.g. "8x8").
func ParseMesh(s string) (Mesh, error) {
	var w, h int
	if _, err := fmt.Sscanf(strings.ToLower(strings.TrimSpace(s)), "%dx%d", &w, &h); err != nil {
		return Mesh{}, fmt.Errorf("nocalert: invalid mesh %q (want WxH)", s)
	}
	if w < 1 || h < 1 {
		return Mesh{}, fmt.Errorf("nocalert: invalid mesh dimensions %dx%d", w, h)
	}
	return NewMesh(w, h), nil
}

// ---- Router micro-architecture ----

// RouterConfig fixes the router micro-architecture: VCs, buffer depth,
// message classes, routing algorithm, buffer atomicity and speculation.
type RouterConfig = router.Config

// Signals is the per-router, per-cycle control-signal record — the
// probe surface shared by the checkers and the fault plane.
type Signals = router.Signals

// Router is one five-stage pipelined NoC router.
type Router = router.Router

// DefaultRouterConfig returns the paper's evaluation configuration:
// 4 VCs per port, 5-flit atomic buffers, one 5-flit message class, XY
// routing.
func DefaultRouterConfig(m Mesh) RouterConfig { return router.Default(m) }

// RoutingAlgorithm is a routing function plus the functional rules the
// RC checkers assert.
type RoutingAlgorithm = routing.Algorithm

// NewRoutingAlgorithm returns the algorithm registered under name:
// "xy", "westfirst" or "adaptive".
func NewRoutingAlgorithm(name string) (RoutingAlgorithm, error) { return routing.New(name) }

// Routing algorithms.
var (
	// XYRouting is deterministic dimension-ordered routing (the paper's
	// baseline).
	XYRouting RoutingAlgorithm = routing.XY{}
	// WestFirstRouting is the west-first turn model.
	WestFirstRouting RoutingAlgorithm = routing.WestFirst{}
	// AdaptiveRouting is minimal adaptive routing with an XY escape VC.
	AdaptiveRouting RoutingAlgorithm = routing.Adaptive{}
)

// ---- Simulation ----

// SimConfig describes a simulation: micro-architecture, workload, seed.
type SimConfig = sim.Config

// Network is a mesh NoC under cycle-accurate simulation.
type Network = sim.Network

// Ejection is one flit delivered to a node's NI.
type Ejection = sim.Ejection

// Monitor observes the network without perturbing it.
type Monitor = sim.Monitor

// BaseMonitor is a no-op Monitor for embedding.
type BaseMonitor = sim.BaseMonitor

// NewNetwork builds a network; the fault plane may be nil for
// fault-free operation.
func NewNetwork(cfg SimConfig, plane *FaultPlane) (*Network, error) { return sim.New(cfg, plane) }

// MustNewNetwork is NewNetwork that panics on error.
func MustNewNetwork(cfg SimConfig, plane *FaultPlane) *Network { return sim.MustNew(cfg, plane) }

// ---- Traffic ----

// TrafficPattern maps packet sources to destinations.
type TrafficPattern = traffic.Pattern

// NewTrafficPattern returns the pattern registered under name:
// "uniform", "transpose", "bitcomplement", "bitreverse", "shuffle",
// "neighbor" or "hotspot".
func NewTrafficPattern(name string) (TrafficPattern, error) { return traffic.New(name) }

// UniformTraffic is the paper's stimulus: uniformly random
// destinations.
var UniformTraffic TrafficPattern = traffic.Uniform{}

// ---- NoCAlert (the paper's contribution) ----

// CheckerID numbers the 32 invariances of the paper's Table 1.
type CheckerID = core.CheckerID

// NumCheckers is the number of invariance checkers (32).
const NumCheckers = core.NumCheckers

// Violation is one assertion raised by a checker.
type Violation = core.Violation

// Engine is the NoCAlert checker fabric; attach it to a Network with
// AttachMonitor.
type Engine = core.Engine

// EngineOptions configures an Engine (ablation, violation retention).
type EngineOptions = core.Options

// NewEngine returns a checker engine for networks built on cfg.
func NewEngine(cfg *RouterConfig, opts EngineOptions) *Engine { return core.NewEngine(cfg, opts) }

// ---- Fault model ----

// FaultSite is one multi-bit fault location (a signal at a module
// boundary).
type FaultSite = fault.Site

// Fault is a single-bit fault bound to a site.
type Fault = fault.Fault

// FaultPlane is the injection surface the routers consult.
type FaultPlane = fault.Plane

// FaultParams describes the micro-architecture dimensions for site
// enumeration.
type FaultParams = fault.Params

// Fault temporal behaviours.
const (
	TransientFault    = fault.Transient
	PermanentFault    = fault.Permanent
	IntermittentFault = fault.Intermittent
)

// FaultKind identifies the signal class of a fault site.
type FaultKind = fault.Kind

// Fault-site signal classes (module boundaries of the router's control
// logic).
const (
	FaultRCInDestX      = fault.RCInDestX
	FaultRCInDestY      = fault.RCInDestY
	FaultRCOutDir       = fault.RCOutDir
	FaultVA1Req         = fault.VA1Req
	FaultVA1Gnt         = fault.VA1Gnt
	FaultVA2Req         = fault.VA2Req
	FaultVA2Gnt         = fault.VA2Gnt
	FaultVA2OutVC       = fault.VA2OutVC
	FaultSA1Req         = fault.SA1Req
	FaultSA1Gnt         = fault.SA1Gnt
	FaultSA2Req         = fault.SA2Req
	FaultSA2Gnt         = fault.SA2Gnt
	FaultXbarSel        = fault.XbarSel
	FaultBufRead        = fault.BufRead
	FaultBufWrite       = fault.BufWrite
	FaultFlitKindIn     = fault.FlitKindIn
	FaultFlitVCIn       = fault.FlitVCIn
	FaultVCStateReg     = fault.VCStateReg
	FaultVCRouteReg     = fault.VCRouteReg
	FaultVCOutVCReg     = fault.VCOutVCReg
	FaultCreditSig      = fault.CreditSig
	FaultCreditCountReg = fault.CreditCountReg
)

// NewFaultPlane returns a plane injecting the given faults.
func NewFaultPlane(faults ...Fault) *FaultPlane { return fault.NewPlane(faults...) }

// FaultParamsFor derives site-enumeration parameters from a simulation
// configuration.
func FaultParamsFor(cfg *RouterConfig) FaultParams {
	return fault.Params{Mesh: cfg.Mesh, VCs: cfg.VCs, BufDepth: cfg.BufDepth}
}

// ---- ForEVeR baseline ----

// ForeverOptions tunes the ForEVeR baseline (epoch length, checker-
// network hop latency, Allocation Comparator).
type ForeverOptions = forever.Options

// ForeverMonitor is the ForEVeR detection fabric.
type ForeverMonitor = forever.Monitor

// NewForeverMonitor returns a ForEVeR monitor for networks built on
// cfg.
func NewForeverMonitor(cfg *RouterConfig, opts ForeverOptions) *ForeverMonitor {
	return forever.NewMonitor(cfg, opts)
}

// ---- Campaign ----

// CampaignOptions configures a fault-injection campaign.
type CampaignOptions = campaign.Options

// CampaignReport is the aggregated campaign output; its Write* methods
// regenerate the paper's Figures 6–9 and Observation tables.
type CampaignReport = campaign.Report

// CampaignResult is the outcome of one fault-injected run.
type CampaignResult = campaign.RunResult

// Outcome classifies one mechanism's behaviour on one fault.
type Outcome = campaign.Outcome

// Outcomes.
const (
	TruePositive  = campaign.TruePositive
	FalsePositive = campaign.FalsePositive
	TrueNegative  = campaign.TrueNegative
	FalseNegative = campaign.FalseNegative
)

// Mechanism selects whose outcomes a report aggregates.
type Mechanism = campaign.Mechanism

// Mechanisms.
const (
	MechanismNoCAlert = campaign.NoCAlert
	MechanismCautious = campaign.Cautious
	MechanismForEVeR  = campaign.ForEVeR
)

// CampaignExitPath identifies how a run reached its result (full
// simulation, fast-path early exit, or golden-state reconvergence).
type CampaignExitPath = campaign.ExitPath

// Exit paths.
const (
	CampaignExitFull        = campaign.ExitFull
	CampaignExitFastPath    = campaign.ExitFastPath
	CampaignExitReconverged = campaign.ExitReconverged
)

// RunCampaign executes a fault-injection campaign.
func RunCampaign(opts CampaignOptions) (*CampaignReport, error) { return campaign.Run(opts) }

// SampleFaults draws n distinct single-bit transient faults injecting
// at cycle, uniformly over every fault location of the mesh (all of
// them when n is 0). The draw is deterministic in seed.
func SampleFaults(p FaultParams, n int, seed uint64, cycle int64) []Fault {
	return campaign.SampleFaults(p, n, seed, cycle)
}

// ---- Sharded, resumable campaigns ----

// CampaignSpec is the complete serializable description of a campaign;
// equal specs derive identical fault universes and run records.
type CampaignSpec = campaign.Spec

// CampaignShard is one planned slice of a campaign's fault universe.
type CampaignShard = campaign.Shard

// CampaignShardRunOptions are RunCampaignShard's execution knobs.
type CampaignShardRunOptions = campaign.ShardRunOptions

// CampaignShardRunStats summarizes one shard execution (resumed,
// verified and newly executed run counts).
type CampaignShardRunStats = campaign.ShardRunStats

// MergedCampaign is a validated, folded set of shard checkpoints.
type MergedCampaign = campaign.Merged

// CampaignFixture is a committed per-fault classification snapshot
// (the golden-fixture format under testdata/).
type CampaignFixture = campaign.Fixture

// PlanCampaignShard deterministically plans shard i of n: shard ranges
// tile the spec's fault universe with no overlap and no gaps for any n.
func PlanCampaignShard(spec CampaignSpec, i, n int) (*CampaignShard, error) {
	return campaign.PlanShard(spec, i, n)
}

// RunCampaignShard executes a shard, streaming completed runs into the
// checkpoint; already-recorded runs are skipped after validation and a
// deterministic re-execution sample.
func RunCampaignShard(sh *CampaignShard, cp *Checkpoint, completed []RunTraceRecord, o CampaignShardRunOptions) (*CampaignShardRunStats, error) {
	return campaign.RunShard(sh, cp, completed, o)
}

// MergeCampaignShards validates a complete shard set and folds it into
// one campaign whose records match the unsharded run bit for bit.
func MergeCampaignShards(shards []*CheckpointData) (*MergedCampaign, error) {
	return campaign.MergeShards(shards)
}

// NewCampaignFixture canonicalizes records into a fixture (sorted by
// index, wall times zeroed).
func NewCampaignFixture(spec CampaignSpec, recs []RunTraceRecord) *CampaignFixture {
	return campaign.NewFixture(spec, recs)
}

// ReadCampaignFixture parses a committed fixture.
func ReadCampaignFixture(r io.Reader) (*CampaignFixture, error) { return campaign.ReadFixture(r) }

// CampaignRunRecord flattens one campaign result into the NDJSON
// record schema shared by run traces, checkpoints and fixtures.
func CampaignRunRecord(i int, res *CampaignResult, wall time.Duration, fastPath bool) RunTraceRecord {
	return campaign.RecordFor(i, res, wall, fastPath)
}

// ---- Telemetry ----

// MetricsRegistry is a concurrency-safe registry of counters, gauges
// and histograms; snapshot it with Snapshot or expose it with
// WriteOpenMetrics.
type MetricsRegistry = metrics.Registry

// MetricsCounter is a monotonically increasing counter.
type MetricsCounter = metrics.Counter

// MetricsGauge is a last-value float64 gauge.
type MetricsGauge = metrics.Gauge

// MetricsHistogram is a fixed-bucket histogram.
type MetricsHistogram = metrics.Histogram

// MetricsSnapshot is a point-in-time, deterministically ordered copy of
// a registry's instruments.
type MetricsSnapshot = metrics.Snapshot

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Campaign metric names published when CampaignOptions.Metrics is set
// (the full list lives beside the campaign engine).
const (
	MetricCampaignRuns                = campaign.MetricRuns
	MetricCampaignFaultsPerSec        = campaign.MetricFaultsPerSec
	MetricCampaignFastPathHits        = campaign.MetricFastPathHits
	MetricCampaignRunSeconds          = campaign.MetricRunSeconds
	MetricCampaignReconvergenceHits   = campaign.MetricReconvergenceHits
	MetricCampaignFullSimRuns         = campaign.MetricFullSimRuns
	MetricCampaignReconvergenceCycles = campaign.MetricReconvergenceCycles
	MetricCampaignForkedRuns          = campaign.MetricForkedRuns
	MetricCampaignWarmstartSaved      = campaign.MetricWarmstartSaved
	MetricCampaignSnapshotBytes       = campaign.MetricSnapshotBytes
	MetricCampaignSimulatedCycles     = campaign.MetricSimulatedCycles
	MetricCampaignSynthesizedCycles   = campaign.MetricSynthesizedCycles
	MetricCampaignSimCyclesPerSec     = campaign.MetricSimCyclesPerSec
)

// OpenMetricsContentType is the Content-Type of
// MetricsRegistry.WriteOpenMetrics' Prometheus/OpenMetrics exposition.
const OpenMetricsContentType = metrics.OpenMetricsContentType

// ---- Observability ----

// Tracer streams hierarchical campaign spans — campaign → shard → run
// → phase — as NDJSON with deterministic run sampling and optional
// OTLP/JSON export; attach it via CampaignOptions.Tracer. Nil-safe: a
// nil *Tracer records nothing.
type Tracer = obs.Tracer

// TracerOptions configures NewTracer.
type TracerOptions = obs.Options

// Span is one live span.
type Span = obs.Span

// NewTracer returns a tracer with a fresh random trace ID.
func NewTracer(o TracerOptions) *Tracer { return obs.New(o) }

// FlightRecorder is the bounded anomaly black box: recent campaign
// events (fork verifications, frontier reconvergences, detections) in a
// ring that auto-dumps to its sink on anomalies such as fork-verify
// mismatches or missed-detection verdicts. Attach it via
// CampaignOptions.FlightRecorder. Nil-safe.
type FlightRecorder = obs.FlightRecorder

// FlightEvent is one flight-recorder ring entry.
type FlightEvent = obs.Event

// NewFlightRecorder returns a recorder holding the most recent
// capacity events (0 = a sensible default), dumping to sink.
func NewFlightRecorder(capacity int, sink io.Writer) *FlightRecorder {
	return obs.NewFlightRecorder(capacity, sink)
}

// CampaignETA converts a live faults/sec reading into the expected
// time to finish the remaining runs; ok is false when the rate is
// degenerate (zero, negative, NaN or ±Inf — e.g. a throughput gauge
// read before the first locally completed run of a resumed shard) and
// no meaningful estimate exists.
func CampaignETA(remaining int, faultsPerSec float64) (time.Duration, bool) {
	return campaign.EstimateETA(remaining, faultsPerSec)
}

// RunTraceRecord is one NDJSON line of a campaign run trace (the
// faultcampaign -trace format).
type RunTraceRecord = trace.RunRecord

// RunTraceWriter streams RunTraceRecords as NDJSON.
type RunTraceWriter = trace.RunWriter

// NewRunTraceWriter returns a writer streaming NDJSON records to w.
func NewRunTraceWriter(w io.Writer) *RunTraceWriter { return trace.NewRunWriter(w) }

// ---- Checkpoints (sharded campaign persistence) ----

// Checkpoint is an appendable shard checkpoint file: a manifest line,
// one RunTraceRecord per completed run, and an integrity footer once
// finalized.
type Checkpoint = trace.Checkpoint

// CheckpointManifest is the self-describing first line of a checkpoint.
type CheckpointManifest = trace.Manifest

// CheckpointFooter seals a finalized checkpoint with a record count
// and an order-independent checksum.
type CheckpointFooter = trace.Footer

// CheckpointData is a fully parsed checkpoint file.
type CheckpointData = trace.CheckpointData

// ResumeCheckpoint opens (or creates) the checkpoint at path, returning
// the writer and the records recovered from a previous execution. A
// torn trailing line — the signature of a killed shard — is dropped and
// truncated; a manifest incompatible with m is an error.
func ResumeCheckpoint(path string, m *CheckpointManifest) (*Checkpoint, []RunTraceRecord, error) {
	return trace.ResumeCheckpoint(path, m)
}

// ReadCheckpointFile parses and integrity-checks a checkpoint file.
func ReadCheckpointFile(path string) (*CheckpointData, error) { return trace.ReadCheckpointFile(path) }

// SumRunRecords is the checkpoint checksum: an order- and wall-time-
// independent fold over the records' canonical bytes.
func SumRunRecords(recs []RunTraceRecord) string { return trace.SumRecords(recs) }

// ---- Diagnosis (extension: detection → localization) ----

// Suspect is one candidate fault location produced by Localize.
type Suspect = diagnose.Suspect

// LocalizationAccuracy scores a suspect ranking against the true
// fault location.
type LocalizationAccuracy = diagnose.Accuracy

// Localize ranks routers by assertion evidence; the engine must have
// been run with EngineOptions.KeepViolations.
func Localize(violations []Violation) []Suspect { return diagnose.Localize(violations) }

// EvaluateLocalization scores a ranking against the router that hosted
// the fault.
func EvaluateLocalization(m Mesh, suspects []Suspect, actual int) LocalizationAccuracy {
	return diagnose.Evaluate(m, suspects, actual)
}

// ---- Hardware model ----

// HWParams fixes router dimensions for the hardware model.
type HWParams = hwmodel.Params

// HWOverhead is one Figure 10 data point.
type HWOverhead = hwmodel.Overhead

// HWDefault returns the paper's hardware evaluation point with the
// given VC count.
func HWDefault(vcs int) HWParams { return hwmodel.Default(vcs) }

// AreaOverhead computes the Figure 10 point for the given parameters.
func AreaOverhead(p HWParams) HWOverhead { return hwmodel.AreaOverhead(p) }

// Fig10Sweep evaluates the Figure 10 VC sweep (2, 4, 6, 8 by default).
func Fig10Sweep(vcs []int) []HWOverhead { return hwmodel.Fig10Sweep(vcs) }

// PowerOverhead estimates the checker fabric's power overhead.
func PowerOverhead(p HWParams) (routerPower, checkerPower, overheadPct float64) {
	return hwmodel.Power(p)
}

// CriticalPathOverhead estimates the checker taps' critical-path
// impact.
func CriticalPathOverhead(p HWParams) (baseLevels, withCheckers, overheadPct float64) {
	return hwmodel.CriticalPath(p)
}
