package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/coordinator"
	"nocalert/internal/obs"
	"nocalert/internal/server"
	"nocalert/internal/trace"
)

// probeFaults sizes the service probe of a non-fleet workload: its mesh
// and rate at one injection cycle, dispatched as two shards.
const (
	probeFaults = 32
	probeShards = 2
	jobFaults   = 8 // the whole-campaign job the HTTP probe submits
)

// serviceRun is one finished coordinator dispatch over a live fleet,
// with the direct unsharded run of the same spec beside it.
type serviceRun struct {
	fl     *fleet
	res    *coordinator.Result
	wallS  float64
	direct *directRun
	shards int
	// goldenS is the sum of the dispatch's golden-warmup spans.
	goldenS float64
}

// runProbes fills every probe-sourced per-layer metric of a traced
// repetition. sr is a fleet workload's own traced dispatch; every other
// workload passes nil and gets a small dispatch of its own spec, so the
// service layers are measured on its mesh too.
func runProbes(out map[string]float64, spec campaign.Spec, opts campaign.Options, rep *campaign.Report, sr *serviceRun, tmp string) error {
	if err := simProbes(out, spec, opts); err != nil {
		return err
	}
	reportJSONProbe(out, rep)
	if sr == nil {
		pspec := spec
		pspec.InjectCycles = nil
		pspec.NumFaults = probeFaults
		var err error
		if sr, err = probeDispatch(pspec, filepath.Join(tmp, "svcprobe")); err != nil {
			return err
		}
		defer sr.fl.stop()
	}
	return serviceProbes(out, sr, tmp)
}

// probeDispatch runs spec through a fleet of two daemons (one on a
// one-core box: campaign threads never exceed nproc) and directly. The
// fleet is traced, as a fleet workload's traced repetition is, for its
// golden-warmup spans.
func probeDispatch(spec campaign.Spec, dir string) (*serviceRun, error) {
	var spanBuf bytes.Buffer
	tracer := obs.New(obs.Options{Writer: &spanBuf, Service: "bench"})
	fl, err := startFleet(dir, min(2, runtime.NumCPU()), 1, tracer)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := coordinator.Run(context.Background(), spec, coordinator.Config{
		Workers: fl.urls(), Shards: probeShards, MaxInFlight: 1, Seed: 1, Tracer: tracer,
	})
	wall := time.Since(start).Seconds()
	if err == nil {
		err = tracer.Close()
	}
	if err != nil {
		fl.stop()
		return nil, fmt.Errorf("service probe dispatch: %w", err)
	}
	spans, err := obs.ReadSpans(&spanBuf)
	if err != nil {
		fl.stop()
		return nil, err
	}
	opts := res.Merged.Spec.Options()
	opts.Faults = res.Merged.Spec.Universe()
	direct, err := runDirect(opts)
	if err != nil {
		fl.stop()
		return nil, err
	}
	return &serviceRun{fl: fl, res: res, wallS: wall, direct: direct, shards: probeShards, goldenS: goldenWarmupS(spans)}, nil
}

func serviceProbes(out map[string]float64, sr *serviceRun, tmp string) error {
	spec := sr.res.Merged.Spec
	recs := sr.res.Merged.Records

	// coordinator
	out["coordinator.fleet_overhead_ratio"] = ratio(sr.wallS, sr.direct.WallS)
	out["coordinator.golden_recompute_s"] = sr.goldenS
	out["coordinator.retries"] = float64(sr.res.Stats.Retries)
	out["coordinator.requeued"] = float64(sr.res.Stats.Requeued)
	var idleMs, waitMs float64
	var jobs int
	var firstJob string
	for i, s := range sr.fl.srvs {
		busy := 0.0
		for _, v := range s.JobViews() {
			sub, st, fin := parseTime(v.SubmittedAt), parseTime(v.StartedAt), parseTime(v.FinishedAt)
			busy += fin.Sub(st).Seconds()
			waitMs += st.Sub(sub).Seconds() * 1e3
			jobs++
			if i == 0 && firstJob == "" {
				firstJob = v.ID
			}
		}
		idleMs += max(0, sr.wallS-busy) * 1e3
	}
	out["coordinator.worker_idle_ms"] = idleMs
	out["server.queue_wait_ms"] = ratio(waitMs, float64(jobs))

	base := sr.fl.tss[0].URL
	start := time.Now()
	resp, err := http.Get(base + "/v1/jobs/" + firstJob + "/checkpoint")
	if err != nil {
		return err
	}
	_, err = trace.ReadCheckpoint(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("checkpoint fetch: %w", err)
	}
	out["coordinator.checkpoint_fetch_ms"] = msSince(start)

	if err := jobProbe(out, base, spec); err != nil {
		return err
	}

	// campaign: shard planning and the merge gate, on this dispatch's
	// own records.
	out["campaign.plan_shard_ms"] = nsPerCall(1, func() { _, _ = campaign.PlanShard(spec, 0, sr.shards) }) / 1e6
	shardData := make([]*trace.CheckpointData, sr.shards)
	for i := range shardData {
		sh, err := campaign.PlanShard(spec, i, sr.shards)
		if err != nil {
			return err
		}
		m, err := sh.Manifest()
		if err != nil {
			return err
		}
		part := recs[sh.Start:sh.End]
		shardData[i] = &trace.CheckpointData{Manifest: *m, Records: part,
			Footer: &trace.Footer{Kind: "footer", Records: len(part), Sum: trace.SumRecords(part)}}
	}
	var mergeErr error
	out["campaign.merge_shards_ms"] = nsPerCall(1, func() { _, mergeErr = campaign.MergeShards(shardData) }) / 1e6
	if mergeErr != nil {
		return mergeErr
	}
	return checkpointProbes(out, spec, recs, tmp)
}

// jobProbe drives one small whole-campaign job through the job API the
// way a client would: submit, follow the event stream, fetch the report.
func jobProbe(out map[string]float64, base string, spec campaign.Spec) error {
	spec.InjectCycles = nil
	spec.NumFaults = jobFaults
	body, err := json.Marshal(&spec)
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var v server.View
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("job probe submit: status %d, %v", resp.StatusCode, err)
	}
	out["server.submit_ms"] = msSince(start)

	accepted := time.Now()
	stream, err := http.Get(base + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		return err
	}
	firstEvent := -1.0
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		var ev server.Event
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Done >= 1 && firstEvent < 0 {
			firstEvent = msSince(accepted)
		}
	}
	stream.Body.Close()
	if err := sc.Err(); err != nil {
		return fmt.Errorf("job probe event stream: %w", err)
	}
	out["server.submit_to_first_event_ms"] = firstEvent

	start = time.Now()
	rr, err := http.Get(base + "/v1/jobs/" + v.ID + "/report")
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, rr.Body)
	rr.Body.Close()
	if err != nil || rr.StatusCode != http.StatusOK {
		return fmt.Errorf("job probe report: status %d, %v", rr.StatusCode, err)
	}
	out["server.report_fetch_ms"] = msSince(start)

	sr, err := http.Get(base + "/v1/jobs/" + v.ID)
	if err != nil {
		return err
	}
	err = json.NewDecoder(sr.Body).Decode(&v)
	sr.Body.Close()
	if err != nil {
		return err
	}
	out["server.events_dropped"] = float64(v.DroppedEvents)
	return nil
}

// checkpointProbes writes, finalizes, reads back and resumes a
// checkpoint holding recs.
func checkpointProbes(out map[string]float64, spec campaign.Spec, recs []trace.RunRecord, tmp string) error {
	sh, err := campaign.PlanShard(spec, 0, 1)
	if err != nil {
		return err
	}
	m, err := sh.Manifest()
	if err != nil {
		return err
	}
	path := filepath.Join(tmp, "probe.ckpt.ndjson")
	cp, err := trace.CreateCheckpoint(path, m)
	if err != nil {
		return err
	}
	start := time.Now()
	for i := range recs {
		if err := cp.Append(&recs[i]); err != nil {
			cp.Close()
			return err
		}
	}
	out["trace.checkpoint_append_us"] = float64(time.Since(start)) / float64(len(recs)) / 1e3
	start = time.Now()
	err = cp.Finalize()
	out["trace.checkpoint_finalize_ms"] = msSince(start)
	if cerr := cp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	out["trace.checkpoint_bytes_per_run"] = float64(len(raw)) / float64(len(recs))
	var readErr error
	out["trace.checkpoint_read_ms"] = nsPerCall(1, func() { _, readErr = trace.ReadCheckpointFile(path) }) / 1e6
	if readErr != nil {
		return readErr
	}

	// A killed shard leaves a torn half: resume must truncate and carry on.
	half := filepath.Join(tmp, "probe.half.ckpt.ndjson")
	if err := os.WriteFile(half, raw[:len(raw)/2], 0o644); err != nil {
		return err
	}
	start = time.Now()
	rcp, _, err := trace.ResumeCheckpoint(half, m)
	out["trace.resume_ms"] = msSince(start)
	if err != nil {
		return err
	}
	return rcp.Close()
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func parseTime(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s) // View timestamps are written by rfc3339(); empty means zero
	return t
}
