// Package server is the long-running campaign service behind
// cmd/nocalertd: an HTTP job API (submit a campaign.Spec, watch its
// progress as an NDJSON/SSE event stream, fetch the final aggregated
// report) layered over a bounded in-process queue and the existing
// campaign engine.
//
// A job is shard i of n of its spec (0/1 for a whole campaign) for one
// tenant, and (tenant, spec hash, i, n) is its identity: an identical
// submit by the same tenant returns the same job. (spec hash, i, n)
// names the job's checkpoint, which two tenants' jobs of one shard share,
// one writer at a time. Durability is the point.
// Every job is persisted in the state directory as that checkpoint plus
// a job-state manifest, so a daemon killed at any instant — SIGKILL
// included — restarts with its full job table and resumes every
// unfinished campaign through RunShard's skip-and-verify path. A done
// job's finalized checkpoint is its only product: a 0/1 job's report is
// folded from it on request exactly like a shard merge, byte-identical
// to an uninterrupted run's.
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

// A job enters the table from one of two statuses no view shows: a
// submit's from statusNew, recover's from statusRecovered.
const (
	statusNew       Status = ""
	statusRecovered Status = "recovered"
)

// Terminal reports whether the status can never change again.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Event is one line of a job's progress stream.
type Event struct {
	// Type is "snapshot" (stream opening, resume jumps, and the
	// transitions to running and back to queued), "progress" (one newly
	// executed run) or "status" (terminal transition).
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
	// RunCounts are the shard's running exit-path and cycle counts over
	// the runs this process executed or verified, one run more on each
	// progress event.
	campaign.RunCounts
	Error string `json:"error,omitempty"`
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
	// ShardIndex/ShardCount are the job's shard coordinates: it runs
	// shard ShardIndex of ShardCount of Spec, 0 of 1 for a whole
	// campaign. With SpecHash they are the job's identity.
	ShardIndex int
	ShardCount int

	// mu guards everything below; Server.transition alone changes
	// status.
	mu     sync.Mutex
	status Status
	// stats is the job's progress, as RunShard last handed it over: at
	// each progress callback and when it returns. Until then Total is the
	// shard's size, its ShardRange over the spec's UniverseSize; a
	// recovered done job carries the Done and Total its manifest records.
	// FaultsPerSec is the job's own live throughput, zeroed at the
	// terminal transition.
	stats campaign.ShardRunStats
	// droppedEvents counts events any subscriber missed because its
	// stream buffer was full; it surfaces in View.
	droppedEvents int
	errMsg        string
	submitted     time.Time
	started       time.Time
	finished      time.Time
	// cancelRun cancels the context of the job's run, set before the job
	// starts running.
	cancelRun context.CancelCauseFunc
	subs      map[*subscriber]struct{}
	closed    bool // terminal: hub closed, no further events
}

// newJob returns a job of tenant running shard i of n of spec, in status
// from (statusNew or statusRecovered) until Server.transition queues it.
func newJob(id, tenant string, spec campaign.Spec, i, n int, submitted time.Time, from Status) *Job {
	lo, hi := campaign.ShardRange(spec.UniverseSize(), i, n)
	return &Job{
		ID:         id,
		Spec:       spec,
		SpecHash:   spec.Hash(),
		Tenant:     tenant,
		ShardIndex: i,
		ShardCount: n,
		status:     from,
		stats:      campaign.ShardRunStats{Total: hi - lo},
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
	// Shard/Shards are the job's shard coordinates, 0/1 for a whole
	// campaign.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// ShardRunStats is the job's progress: its run and exit-path counts,
	// as on its events, and its live throughput while it runs (zero
	// until the first progress sample, and after terminal states).
	campaign.ShardRunStats
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
	return View{
		ID:            j.ID,
		Status:        j.status,
		Spec:          j.Spec,
		SpecHash:      j.SpecHash,
		Tenant:        j.Tenant,
		Shard:         j.ShardIndex,
		Shards:        j.ShardCount,
		ShardRunStats: j.stats,
		DroppedEvents: j.droppedEvents,
		Error:         j.errMsg,
		SubmittedAt:   rfc3339(j.submitted),
		StartedAt:     rfc3339(j.started),
		FinishedAt:    rfc3339(j.finished),
	}
}

// event renders the job's current state as a stream event of type typ.
func (j *Job) event(typ string) Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.eventLocked(typ)
}

// eventLocked renders the job's current state as a stream event of
// type typ. Called with j.mu held.
func (j *Job) eventLocked(typ string) Event {
	return Event{
		Type:      typ,
		Job:       j.ID,
		Status:    j.status,
		Done:      j.stats.Done,
		Total:     j.stats.Total,
		Resumed:   j.stats.Resumed,
		RunCounts: j.stats.RunCounts,
		Error:     j.errMsg,
	}
}

// subscribe attaches an event stream. The returned cancel function
// detaches it; the channel is closed when the job reaches a terminal
// state (or was already terminal at subscribe time).
func (j *Job) subscribe(buffer int) (<-chan Event, func()) {
	sub := &subscriber{ch: make(chan Event, buffer)}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		close(sub.ch)
		return sub.ch, func() {}
	}
	j.subs[sub] = struct{}{}
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
		ev.Dropped = sub.dropped
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
// once the job is terminal.
func (j *Job) closeHubLocked() {
	j.closed = true
	for sub := range j.subs {
		delete(j.subs, sub)
		close(sub.ch)
	}
}
