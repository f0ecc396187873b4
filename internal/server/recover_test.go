package server

import (
	"context"
	"os"
	"testing"

	"nocalert/internal/trace"
)

// FuzzJobStateRecover holds the daemon's job-state intake: bytes written
// as a job's manifest in the state directory, then the job table rebuilt
// from it the way a restarted daemon does (no workers, so no campaign
// runs). No input may panic, and the rebuild either refuses the
// directory or recovers jobs whose spec hashes to the manifest's
// recorded spec_hash — the identity their checkpoint is keyed and
// checked by. The seeds are the manifests the daemon writes (queued,
// done, a coordinator-dispatched shard, failed) and damaged ones.
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
	for _, j := range []*Job{whole, shard} {
		b, err := os.ReadFile(trace.JobStatePath(dir, j.ID))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	s.persistTerminal(whole, StatusDone, "", whole.submitted)
	s.persistTerminal(shard, StatusFailed, "server: shard 1/4: boom", shard.submitted)
	for _, j := range []*Job{whole, shard} {
		b, err := os.ReadFile(trace.JobStatePath(dir, j.ID))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
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
		}
	})
}
