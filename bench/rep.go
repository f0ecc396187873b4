package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/coordinator"
	"nocalert/internal/obs"
)

// repConfig is what the driver hands one repetition. A repetition is
// one complete run of one workload in a fresh process (the tests call
// runRep in-process instead).
type repConfig struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Scale    float64 `json:"scale"`
	// Traced switches on the campaign's existing Tracer hook and, after
	// the measured section, the per-layer probes.
	Traced bool `json:"traced"`
	// VerifyDirect makes a fleet repetition also run its spec unsharded
	// in-process (after the measured section) and compare report bytes.
	VerifyDirect bool `json:"verify_direct"`
	// SpawnedAt is the driver's clock just before it started the
	// process, in Unix nanoseconds: setup_s counts from here.
	SpawnedAt int64 `json:"spawned_at"`
	// TmpDir holds the repetition's service state and checkpoints.
	TmpDir string `json:"tmp_dir"`
}

// counts are the campaign's own exact accounting, read from the Report
// (direct workloads) or summed over the daemons' registries (fleet).
type counts struct {
	FastPath, Reconverged, FullSim, Forked, Frontier int64
	SimCycles, SynthCycles, WarmSaved                int64
	SnapshotBytes, TimelineBytes                     int64
}

// sample is everything one repetition measured.
type sample struct {
	N int `json:"n"`
	// WallS is the campaign.Run / coordinator.Run call, warm-up included.
	WallS float64 `json:"wall_s"`
	// SetupS is process start to the first Progress callback with one
	// run done; T1S is the same instant measured from the Run call.
	SetupS float64 `json:"setup_s"`
	T1S    float64 `json:"t1_s"`
	// CPUS and PeakRSSMB are getrusage(RUSAGE_SELF) taken right after
	// the measured section, so verification and probes do not pollute
	// them.
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Mallocs and AllocBytes are runtime.MemStats deltas around Run.
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// Digest is the SHA-256 of Report.WriteJSON.
	Digest string `json:"digest"`
	// Failed counts judged runs that must not be trusted: run errors,
	// NoCAlert false negatives, requeued or failed shards, a fleet
	// report that differs from the direct run. Notes says which.
	Failed int      `json:"failed"`
	Notes  []string `json:"notes,omitempty"`
	Counts counts   `json:"counts"`
	// Layer holds the per-layer metrics only a traced repetition
	// produces (spans and probes), by metric name.
	Layer map[string]float64 `json:"layer,omitempty"`
}

func (s *sample) fail(n int, format string, args ...any) {
	s.Failed += n
	s.Notes = append(s.Notes, fmt.Sprintf(format, args...))
}

// rusage returns the process's CPU seconds (user+sys) and peak RSS.
func rusage() (cpuS, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func reportDigest(rep *campaign.Report) (string, []byte, error) {
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), buf.Bytes(), nil
}

// runRep executes one repetition.
func runRep(cfg repConfig) (*sample, error) {
	w, err := findWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	spec, opts := w.build(cfg.Seed, cfg.Scale)
	s := &sample{N: len(opts.Faults)}

	var spanBuf bytes.Buffer
	var tracer *obs.Tracer
	if cfg.Traced {
		tracer = obs.New(obs.Options{Writer: &spanBuf, Service: "bench"})
	}

	var firstDone time.Time
	markFirst := func(done int) {
		if firstDone.IsZero() && done >= 1 {
			firstDone = time.Now()
		}
	}

	var rep *campaign.Report
	var fl *fleet
	var fleetRes *coordinator.Result
	var ms0, ms1 runtime.MemStats
	var start time.Time
	if w.Fleet != nil {
		fl, err = startFleet(cfg.TmpDir, w.Fleet.Daemons, w.Workers, tracer)
		if err != nil {
			return nil, err
		}
		defer fl.stop()
		runtime.ReadMemStats(&ms0)
		start = time.Now()
		fleetRes, err = coordinator.Run(context.Background(), spec, coordinator.Config{
			Workers:     fl.urls(),
			Shards:      w.Fleet.Shards,
			MaxInFlight: w.Fleet.MaxInFlight,
			Tracer:      tracer,
			Seed:        1,
			Progress:    func(u coordinator.ProgressUpdate) { markFirst(u.Done) },
		})
		if fleetRes != nil {
			rep = fleetRes.Report
		}
	} else {
		opts.Tracer = tracer
		opts.Progress = func(done, _ int) { markFirst(done) }
		runtime.ReadMemStats(&ms0)
		start = time.Now()
		rep, err = campaign.Run(opts)
	}
	end := time.Now()
	runtime.ReadMemStats(&ms1)
	s.CPUS, s.PeakRSSMB = rusage()

	s.WallS = end.Sub(start).Seconds()
	s.Mallocs = ms1.Mallocs - ms0.Mallocs
	s.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if err != nil {
		// Every run of the repetition is lost with the campaign.
		s.fail(s.N, "run failed: %v", err)
		return s, nil
	}
	if firstDone.IsZero() {
		firstDone = end
	}
	s.T1S = firstDone.Sub(start).Seconds()
	s.SetupS = float64(firstDone.UnixNano()-cfg.SpawnedAt) / 1e9

	var repJSON []byte
	s.Digest, repJSON, err = reportDigest(rep)
	if err != nil {
		return nil, err
	}
	if fn := rep.FalseNegatives(campaign.NoCAlert); fn > 0 {
		s.fail(fn, "%d NoCAlert false negatives", fn)
	}
	if fleetRes != nil {
		s.Counts = fl.counts()
		if bad := fleetRes.Stats.Requeued + fleetRes.Stats.WorkersDead; bad > 0 {
			s.fail(bad, "%d shards requeued, %d workers dead", fleetRes.Stats.Requeued, fleetRes.Stats.WorkersDead)
		}
	} else {
		s.Counts = countsOf(rep)
	}

	var direct *directRun
	if w.Fleet != nil && (cfg.VerifyDirect || cfg.Traced) {
		direct, err = runDirect(opts)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(direct.JSON, repJSON) {
			s.fail(s.N, "merged fleet report differs from the direct unsharded run (%s vs %s)", s.Digest, direct.Digest)
		}
	}

	if cfg.Traced {
		if err := tracer.Close(); err != nil {
			return nil, err
		}
		spans, err := obs.ReadSpans(&spanBuf)
		if err != nil {
			return nil, err
		}
		s.Layer = make(map[string]float64)
		spanMetrics(s.Layer, spans, s)
		var sr *serviceRun
		if w.Fleet != nil {
			sr = &serviceRun{fl: fl, res: fleetRes, wallS: s.WallS, direct: direct, shards: w.Fleet.Shards, goldenS: goldenWarmupS(spans)}
		}
		if err := runProbes(s.Layer, spec, opts, rep, sr, cfg.TmpDir); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	return s, nil
}

func countsOf(rep *campaign.Report) counts {
	n := int64(len(rep.Results))
	fast, reconv := int64(rep.FastPathHits), int64(rep.ReconvergedHits)
	return counts{
		FastPath: fast, Reconverged: reconv, FullSim: n - fast - reconv,
		Forked: int64(rep.ForkedRuns), Frontier: int64(rep.FrontierRuns),
		SimCycles: rep.SimulatedCycles, SynthCycles: rep.SynthesizedCycles,
		WarmSaved:     rep.WarmstartCyclesSaved,
		SnapshotBytes: rep.SnapshotBytes, TimelineBytes: rep.TimelineBytes,
	}
}

// directRun is a fleet spec run unsharded by campaign.Run in this
// process: the reference the merged report must equal byte for byte and
// the denominator of coordinator.fleet_overhead_ratio.
type directRun struct {
	WallS  float64
	Digest string
	JSON   []byte
}

func runDirect(opts campaign.Options) (*directRun, error) {
	opts.Tracer, opts.Progress = nil, nil
	opts.Workers = min(2, runtime.NumCPU())
	start := time.Now()
	rep, err := campaign.Run(opts)
	if err != nil {
		return nil, fmt.Errorf("direct run: %w", err)
	}
	d := &directRun{WallS: time.Since(start).Seconds()}
	d.Digest, d.JSON, err = reportDigest(rep)
	return d, err
}

// repTmpDir makes a fresh scratch directory under base, inside the
// checkout (the harness writes nowhere else).
func repTmpDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "rep-")
}
