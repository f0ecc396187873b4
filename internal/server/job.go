// Package server is the long-running campaign service behind
// cmd/nocalertd: an HTTP job API (submit a campaign.Spec, watch its
// progress as an NDJSON/SSE event stream, fetch the final aggregated
// report) layered over a bounded in-process queue and the existing
// campaign engine.
//
// Durability is the point. Every job is persisted in the state
// directory as a PR-3 shard checkpoint (the whole campaign planned as
// shard 0/1) plus a job-state manifest, so a daemon killed at any
// instant — SIGKILL included — restarts with its full job table and
// resumes every unfinished campaign through RunShard's skip-and-verify
// path. The resumed job's final report is byte-identical to an
// uninterrupted run's, because completed runs are replayed from the
// checkpoint rather than re-executed, and the report is rebuilt from
// the full record set exactly like a shard merge.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/trace"
)

// Status is a job's lifecycle state. The durable subset (everything
// except "running") mirrors the trace.Job* constants; "running" is
// in-memory only, so a killed daemon restarts the job as queued.
type Status string

const (
	StatusQueued   Status = trace.JobQueued
	StatusRunning  Status = "running"
	StatusDone     Status = trace.JobDone
	StatusFailed   Status = trace.JobFailed
	StatusCanceled Status = trace.JobCanceled
)

// Terminal reports whether the status can never change again.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Event is one line of a job's progress stream.
type Event struct {
	// Type is "snapshot" (stream opening and resume jumps), "progress"
	// (one newly executed run) or "status" (terminal transition).
	Type   string `json:"type"`
	Job    string `json:"job"`
	Status Status `json:"status"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	// Resumed counts runs recovered from the checkpoint rather than
	// executed by this process.
	Resumed int `json:"resumed,omitempty"`
	// FaultsPerSec/ETASeconds appear on progress events once the
	// campaign has a live throughput sample (see campaign.EstimateETA).
	FaultsPerSec float64 `json:"faults_per_sec,omitempty"`
	ETASeconds   float64 `json:"eta_seconds,omitempty"`
	// FastPathHits/Reconverged/FullSim are the running exit-path counts
	// among the newly executed runs (progress events only). Forked
	// counts warm-started runs; the campaign reports it when it
	// finishes, so it appears on the final event.
	FastPathHits int    `json:"fast_path_hits,omitempty"`
	Reconverged  int    `json:"reconverged,omitempty"`
	FullSim      int    `json:"full_sim,omitempty"`
	Forked       int    `json:"forked,omitempty"`
	Error        string `json:"error,omitempty"`
	// Dropped counts events this subscriber missed immediately before
	// this one because it consumed too slowly (the stream truncates
	// rather than stall the campaign).
	Dropped int `json:"dropped,omitempty"`
}

// subscriber is one attached event stream. Its channel is buffered;
// when full, publishes are counted into dropped instead of blocking
// the campaign's progress callback.
type subscriber struct {
	ch      chan Event
	dropped int
}

// Job is one submitted campaign.
type Job struct {
	ID string
	// Spec is the normalized campaign spec the job runs (defaults
	// applied at submit time, before hashing or persisting).
	Spec     campaign.Spec
	SpecHash string
	// Tenant names the submitter (resolved from the auth table); ""
	// for anonymous/local submissions.
	Tenant string
	// ShardIndex/ShardCount are the job's shard coordinates: a
	// coordinator-dispatched slice of a larger campaign runs shard
	// ShardIndex of ShardCount; a whole-campaign job runs 0 of 1.
	ShardIndex int
	ShardCount int

	mu          sync.Mutex
	status      Status
	done        int // completed runs, resumed included
	total       int // planned run count (spec.NumFaults until planned)
	resumed     int
	executed    int
	verified    int
	fastPath    int
	reconverged int
	fullSim     int
	forked      int
	// faultsPerSec is the job's own live throughput at the last progress
	// callback (campaign.ShardRunStats.FaultsPerSec); droppedEvents counts
	// events any subscriber missed because its stream buffer was full.
	// Both surface in View.
	faultsPerSec  float64
	droppedEvents int
	errMsg        string
	submitted     time.Time
	started       time.Time
	finished      time.Time
	// cancelRun cancels the running campaign's context; canceled marks
	// a user cancellation (as opposed to a daemon drain).
	cancelRun context.CancelFunc
	canceled  bool
	subs      map[*subscriber]struct{}
	closed    bool // terminal: hub closed, no further events
}

func newJob(id string, spec campaign.Spec, submitted time.Time) *Job {
	return &Job{
		ID:         id,
		Spec:       spec,
		SpecHash:   spec.Hash(),
		ShardCount: 1,
		status:     StatusQueued,
		total:      spec.NumFaults,
		submitted:  submitted,
		subs:       make(map[*subscriber]struct{}),
	}
}

// newJobID returns a fresh random job ID ("j" + 12 hex digits).
func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: crypto/rand unavailable: " + err.Error())
	}
	return "j" + hex.EncodeToString(b[:])
}

// View is the JSON shape of a job in API responses.
type View struct {
	ID       string        `json:"id"`
	Status   Status        `json:"status"`
	Spec     campaign.Spec `json:"spec"`
	SpecHash string        `json:"spec_hash"`
	// Tenant is the submitting tenant (empty for anonymous/local).
	Tenant string `json:"tenant,omitempty"`
	// Shard/Shards are the job's shard coordinates when it runs one
	// slice of a coordinator-dispatched campaign (Shards > 1); both
	// absent for whole-campaign jobs.
	Shard           int `json:"shard,omitempty"`
	Shards          int `json:"shards,omitempty"`
	Done            int `json:"done"`
	Total           int `json:"total"`
	Resumed         int `json:"resumed,omitempty"`
	Executed        int `json:"executed,omitempty"`
	Verified        int `json:"verified,omitempty"`
	FastPathHits    int `json:"fast_path_hits,omitempty"`
	ReconvergedHits int `json:"reconverged_hits,omitempty"`
	FullSimRuns     int `json:"full_sim_runs,omitempty"`
	ForkedRuns      int `json:"forked_runs,omitempty"`
	// FaultsPerSec is the live campaign throughput while the job runs
	// (zero until the first progress sample, and after terminal states).
	FaultsPerSec float64 `json:"faults_per_sec,omitempty"`
	// DroppedEvents counts progress events slow subscribers missed —
	// the event hub truncates rather than stall the campaign, and this
	// total makes that loss observable.
	DroppedEvents int    `json:"dropped_events,omitempty"`
	Error         string `json:"error,omitempty"`
	SubmittedAt   string `json:"submitted_at"`
	StartedAt     string `json:"started_at,omitempty"`
	FinishedAt    string `json:"finished_at,omitempty"`
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// view snapshots the job for an API response.
func (j *Job) view() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:              j.ID,
		Status:          j.status,
		Spec:            j.Spec,
		SpecHash:        j.SpecHash,
		Tenant:          j.Tenant,
		Done:            j.done,
		Total:           j.total,
		Resumed:         j.resumed,
		Executed:        j.executed,
		Verified:        j.verified,
		FastPathHits:    j.fastPath,
		ReconvergedHits: j.reconverged,
		FullSimRuns:     j.fullSim,
		ForkedRuns:      j.forked,
		FaultsPerSec:    j.faultsPerSec,
		DroppedEvents:   j.droppedEvents,
		Error:           j.errMsg,
		SubmittedAt:     rfc3339(j.submitted),
		StartedAt:       rfc3339(j.started),
		FinishedAt:      rfc3339(j.finished),
	}
	if j.ShardCount > 1 {
		v.Shard, v.Shards = j.ShardIndex, j.ShardCount
	}
	return v
}

// snapshotEvent renders the job's current state as a stream event.
func (j *Job) snapshotEvent() Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Event{
		Type:         "snapshot",
		Job:          j.ID,
		Status:       j.status,
		Done:         j.done,
		Total:        j.total,
		Resumed:      j.resumed,
		FastPathHits: j.fastPath,
		Reconverged:  j.reconverged,
		FullSim:      j.fullSim,
		Forked:       j.forked,
		Error:        j.errMsg,
	}
}

// subscribe attaches an event stream. The returned cancel function
// detaches it; the channel is closed when the job reaches a terminal
// state (or was already terminal at subscribe time).
func (j *Job) subscribe(buffer int) (<-chan Event, func()) {
	sub := &subscriber{ch: make(chan Event, buffer)}
	j.mu.Lock()
	closed := j.closed
	if !closed {
		j.subs[sub] = struct{}{}
	}
	j.mu.Unlock()
	if closed {
		close(sub.ch)
		return sub.ch, func() {}
	}
	return sub.ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[sub]; ok {
			delete(j.subs, sub)
			close(sub.ch)
		}
	}
}

// publish fans ev out to every subscriber without blocking: a full
// subscriber buffer drops the event and surfaces the gap in the next
// delivered event's Dropped count. Called with j.mu held.
func (j *Job) publishLocked(ev Event) {
	for sub := range j.subs {
		if sub.dropped > 0 {
			ev.Dropped = sub.dropped
		} else {
			ev.Dropped = 0
		}
		select {
		case sub.ch <- ev:
			sub.dropped = 0
		default:
			sub.dropped++
			j.droppedEvents++
		}
	}
}

// closeHubLocked ends every subscriber stream. Called with j.mu held,
// after the terminal state is set.
func (j *Job) closeHubLocked() {
	if j.closed {
		return
	}
	j.closed = true
	for sub := range j.subs {
		delete(j.subs, sub)
		close(sub.ch)
	}
}
