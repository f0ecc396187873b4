package server

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"nocalert/internal/trace"
)

// TestRecoverRefusesWhatSubmitRefuses: a restarted daemon takes a job's
// manifest through the check a submission passes, so a manifest whose
// spec hashes right but does not validate, or whose shard coordinates
// name no shard, stops the daemon at start instead of failing the job
// when a worker plans it.
func TestRecoverRefusesWhatSubmitRefuses(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		edit       func(js *trace.JobState)
	}{
		{"shard 7 of 2", "shard index 7 outside [0,2)", func(js *trace.JobState) { js.Shard, js.Shards = 7, 2 }},
		{"shard 1 of -2", "shard count -2 < 1", func(js *trace.JobState) { js.Shard, js.Shards = 1, -2 }},
		{"9 VCs, hash recomputed", "VC", func(js *trace.JobState) {
			spec := testSpec(24)
			spec.Normalize()
			spec.VCs = 9
			js.Spec, _ = json.Marshal(&spec)
			js.SpecHash = spec.Hash()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := queuedServer(t, Config{Dir: dir})
			j, _, err := s.SubmitJob(testSpec(24), SubmitOptions{Shard: 1, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			s.Stop(context.Background())
			js, err := trace.ReadJobState(trace.JobStatePath(dir, j.ID))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := build(Config{Dir: dir}); err != nil {
				t.Fatalf("the unedited manifest is refused: %v", err)
			}
			tc.edit(js)
			if err := trace.WriteJobState(dir, js); err != nil {
				t.Fatal(err)
			}
			if s, err := build(Config{Dir: dir}); err == nil {
				s.Stop(context.Background())
				t.Fatalf("recovered %+v", s.JobViews())
			} else if !strings.Contains(err.Error(), j.ID) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refused with %q, want the job ID and %q", err, tc.want)
			}
		})
	}
}

// TestOldManifestLoadsAsShard0Of1: a manifest that names no shard, 0/0
// as daemons wrote a whole-campaign job before every job carried its
// shard, loads as shard 0/1, the identity an identical submit finds.
func TestOldManifestLoadsAsShard0Of1(t *testing.T) {
	dir := t.TempDir()
	j, err := queuedServer(t, Config{Dir: dir}).Submit(testSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	js, err := trace.ReadJobState(trace.JobStatePath(dir, j.ID))
	if err != nil {
		t.Fatal(err)
	}
	js.Shard, js.Shards = 0, 0
	if err := trace.WriteJobState(dir, js); err != nil {
		t.Fatal(err)
	}
	s := queuedServer(t, Config{Dir: dir})
	again, existing, err := s.SubmitJob(testSpec(24), SubmitOptions{})
	if err != nil || !existing || again.ID != j.ID {
		t.Fatalf("submit over the 0/0 manifest: existing=%v err=%v, want job %s back", existing, err, j.ID)
	}
	if v := again.view(); v.Shard != 0 || v.Shards != 1 {
		t.Fatalf("the 0/0 manifest loaded as shard %d/%d, want 0/1", v.Shard, v.Shards)
	}
}

// TestRecoveredTwinsTakeTurns: a state directory from before every job was
// a shard can hold two whole-campaign jobs of one spec. Both are recovered
// queued and share one checkpoint, so even on two job slots they run in
// turn: each ends done, the second resuming what the first recorded, and
// the checkpoint reads back whole.
func TestRecoveredTwinsTakeTurns(t *testing.T) {
	dir := t.TempDir()
	j, err := queuedServer(t, Config{Dir: dir}).Submit(testSpec(96))
	if err != nil {
		t.Fatal(err)
	}
	js, err := trace.ReadJobState(trace.JobStatePath(dir, j.ID))
	if err != nil {
		t.Fatal(err)
	}
	js.ID, js.Shard, js.Shards = "jtwin", 0, 0
	if err := trace.WriteJobState(dir, js); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Dir: dir, Concurrency: 2, CampaignWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop(context.Background())
	resumed := 0
	for _, id := range []string{j.ID, "jtwin"} {
		v := waitJob(t, s, id, 2*time.Minute)
		if v.Status != StatusDone {
			t.Fatalf("job %s ended %s (%s)", id, v.Status, v.Error)
		}
		resumed += v.Resumed
	}
	if resumed != 96 {
		t.Errorf("the twins resumed %d runs between them, want the second to resume all 96", resumed)
	}
	cd, err := trace.ReadCheckpointFile(s.checkpointPath(j))
	if err != nil {
		t.Fatal(err)
	}
	if len(cd.Records) != 96 || cd.Footer == nil {
		t.Fatalf("the shared checkpoint holds %d records (finalized: %v), want 96 and a footer", len(cd.Records), cd.Footer != nil)
	}
}

// FuzzJobStateRecover holds the daemon's job-state intake: bytes written
// as a job's manifest in the state directory, then the job table rebuilt
// from it the way a restarted daemon does (no workers, so no campaign
// runs). No input may panic, and the rebuild either refuses the
// directory or recovers jobs a submission would have taken: the spec
// hashes to the manifest's recorded spec_hash — the identity their
// checkpoint is keyed and checked by —, validates, and the shard
// coordinates name a shard of it. The seeds are the manifests the daemon
// writes (queued, done, a coordinator-dispatched shard, failed), the
// shard's with its coordinates out of range (hash intact), and damaged
// ones.
func FuzzJobStateRecover(f *testing.F) {
	dir := f.TempDir()
	s, err := build(Config{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	whole, err := s.Submit(testSpec(24))
	if err != nil {
		f.Fatal(err)
	}
	shard, _, err := s.SubmitJob(testSpec(96), SubmitOptions{Shard: 1, Shards: 4})
	if err != nil {
		f.Fatal(err)
	}
	// The daemon's own manifests, renamed to the job the fuzzed bytes are
	// written as (the state directory refuses a manifest naming another).
	seed := func(j *Job, edit func(*trace.JobState)) {
		js, err := trace.ReadJobState(trace.JobStatePath(dir, j.ID))
		if err != nil {
			f.Fatal(err)
		}
		js.ID = "jfuzz"
		edit(js)
		b, err := json.Marshal(js)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	same := func(*trace.JobState) {}
	seed(whole, same)
	seed(shard, same)
	// The shard's manifest, its spec hash intact, naming shard 7 of 2.
	seed(shard, func(js *trace.JobState) { js.Shard, js.Shards = 7, 2 })
	if err := s.persistJob(whole, StatusDone, "", whole.submitted); err != nil {
		f.Fatal(err)
	}
	if err := s.persistJob(shard, StatusFailed, "server: shard 1/4: boom", shard.submitted); err != nil {
		f.Fatal(err)
	}
	seed(whole, same)
	seed(shard, same)
	for _, body := range []string{
		`{"kind":"job","version":1,"id":"jfuzz","spec":{"mesh_w":4},"spec_hash":"0000000000000000","status":"queued","submitted_at":""}`,
		`{"kind":"job","version":1,"id":"jfuzz","spec":null,"spec_hash":"","status":"done","submitted_at":"x"}`,
		`{"kind":"job","version":1,"id":"jfuzz","spec":"4x4","spec_hash":"","status":"queued","submitted_at":""}`,
		`{"kind":"job","version":1,"id":"jother","spec":{},"spec_hash":"","status":"queued","submitted_at":""}`,
		`{"kind":"job","version":1,"id":"jfuzz","spec":{},"spec_hash":"","shard":7,"shards":2,"status":"done","submitted_at":""}`,
		`{"kind":"job","version":1,"id":"jfuzz","spec":{},"spec_hash":"","status":"running","submitted_at":""}`,
		`{"kind":"manifest"}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, state []byte) {
		dir := t.TempDir()
		path := trace.JobStatePath(dir, "jfuzz")
		if err := os.WriteFile(path, state, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := build(Config{Dir: dir})
		if err != nil {
			return
		}
		defer s.Stop(context.Background())
		views := s.JobViews()
		if len(views) == 0 {
			return
		}
		js, err := trace.ReadJobState(path)
		if err != nil {
			t.Fatalf("recovered %d jobs from a manifest that does not read: %v", len(views), err)
		}
		for _, v := range views {
			j, _ := s.Job(v.ID)
			if h := j.Spec.Hash(); h != js.SpecHash || j.SpecHash != js.SpecHash {
				t.Fatalf("job %s recovered with spec hash %s (carried %s), its manifest records %s", v.ID, h, j.SpecHash, js.SpecHash)
			}
			if err := j.Spec.Validate(); err != nil {
				t.Fatalf("job %s recovered with a spec that does not validate: %v", v.ID, err)
			}
			if j.ShardCount < 1 || j.ShardIndex < 0 || j.ShardIndex >= j.ShardCount {
				t.Fatalf("job %s recovered as shard %d of %d", v.ID, j.ShardIndex, j.ShardCount)
			}
		}
	})
}
