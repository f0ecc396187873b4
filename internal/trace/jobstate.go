package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A job-state manifest is the durable identity of one daemon-managed
// campaign job: which spec it runs, which shard of it, and the last
// durable point of its lifecycle. It sits alongside the job's shard
// checkpoint in the same state directory, so the directory alone is
// enough for a restarted daemon to rebuild its whole job table:
//
//	<dir>/<id>.job.json                    — this manifest (atomic rewrite on change)
//	<dir>/<spec-hash>.s<i>of<n>.ckpt.ndjson — the shard checkpoint (append-only)
//
// The checkpoint is named by the job's identity, spec hash and shard,
// not by its ID: a job resubmitted after a failure or cancel resumes the
// checkpoint an earlier job of the same identity left behind, and a done
// job's finalized checkpoint is its only product (the daemon folds its
// report from it on request).
//
// Only durable transitions are recorded: a job is written as "queued"
// at submit and rewritten when it reaches a terminal state. "running"
// is deliberately not persisted — a daemon killed mid-run leaves the
// manifest saying "queued", which is exactly what the restart scan
// needs in order to re-enqueue the job and resume its checkpoint.

// JobStateVersion is the job manifest format version.
const JobStateVersion = 1

// Durable job statuses. Terminal ones never change again.
const (
	JobQueued   = "queued"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// JobState is the on-disk job manifest.
type JobState struct {
	Kind    string `json:"kind"` // always "job"
	Version int    `json:"version"`
	// ID names the job and its manifest file.
	ID string `json:"id"`
	// Spec is the full campaign specification (campaign.Spec JSON),
	// embedded opaquely so this package does not depend on the campaign
	// package (the same pattern as Manifest.Spec).
	Spec json.RawMessage `json:"spec"`
	// SpecHash fingerprints the spec; the runner cross-checks it before
	// resuming the checkpoint under a rebuilt plan.
	SpecHash string `json:"spec_hash"`
	// Tenant names the submitter (from the daemon's auth table). Empty
	// for anonymous/local submissions. Persisted so quota accounting and
	// fair queueing survive a restart.
	Tenant string `json:"tenant,omitempty"`
	// Shard/Shards are the job's shard coordinates: shard i of n of the
	// spec, 0/1 for a whole campaign. Manifests written before every job
	// carried them hold 0/0, which the daemon reads as 0/1.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Done/Total record the job's final run counts at its terminal
	// transition, so a restarted daemon can report them without
	// re-deriving the fault universe.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Status is the last durable lifecycle point (Job* constants).
	Status string `json:"status"`
	// Error carries the failure cause when Status is JobFailed.
	Error string `json:"error,omitempty"`
	// SubmittedAt and FinishedAt are RFC3339 timestamps; FinishedAt is
	// empty until the job reaches a terminal status.
	SubmittedAt string `json:"submitted_at"`
	FinishedAt  string `json:"finished_at,omitempty"`
}

const jobStateSuffix = ".job.json"

// JobStatePath returns the manifest path for job id in dir.
func JobStatePath(dir, id string) string { return filepath.Join(dir, id+jobStateSuffix) }

// ShardCheckpointPath returns the checkpoint path for shard i of n of
// the campaign fingerprinted by specHash. It is keyed on the campaign
// identity rather than a job ID, so a re-submitted shard (a coordinator
// requeueing work onto a restarted worker) resumes the partial checkpoint
// an earlier job left behind instead of starting over.
func ShardCheckpointPath(dir, specHash string, i, n int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.s%dof%d.ckpt.ndjson", specHash, i, n))
}

// WriteJobState durably writes the manifest for js.ID in dir: the
// bytes land in a same-directory temp file first and are renamed into
// place, so a kill at any instant leaves either the old manifest or the
// new one, never a torn half-written line.
func WriteJobState(dir string, js *JobState) error {
	if js.ID == "" {
		return fmt.Errorf("trace: job state has no ID")
	}
	if js.Kind == "" {
		js.Kind = "job"
	}
	if js.Version == 0 {
		js.Version = JobStateVersion
	}
	b, err := json.Marshal(js)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	path := JobStatePath(dir, js.ID)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// ReadJobState parses the manifest at path.
func ReadJobState(path string) (*JobState, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var js JobState
	if err := json.Unmarshal(b, &js); err != nil {
		return nil, fmt.Errorf("trace: job state %s: %v", path, err)
	}
	if js.Kind != "job" {
		return nil, fmt.Errorf("trace: job state %s: kind %q, want \"job\"", path, js.Kind)
	}
	if js.Version != JobStateVersion {
		return nil, fmt.Errorf("trace: job state %s: version %d, want %d", path, js.Version, JobStateVersion)
	}
	if js.ID == "" {
		return nil, fmt.Errorf("trace: job state %s: empty job ID", path)
	}
	switch js.Status {
	case JobQueued, JobDone, JobFailed, JobCanceled:
	default:
		return nil, fmt.Errorf("trace: job state %s: unknown status %q", path, js.Status)
	}
	return &js, nil
}

// ListJobStates scans dir for job manifests and returns them ordered
// by submission time (then ID, for a total order), which is the order
// a restarted daemon re-enqueues unfinished jobs in. A missing dir is
// an empty state store, not an error.
func ListJobStates(dir string) ([]*JobState, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []*JobState
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, jobStateSuffix) {
			continue
		}
		js, err := ReadJobState(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if want := name[:len(name)-len(jobStateSuffix)]; js.ID != want {
			return nil, fmt.Errorf("trace: job state %s claims ID %q", name, js.ID)
		}
		out = append(out, js)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SubmittedAt != out[j].SubmittedAt {
			return out[i].SubmittedAt < out[j].SubmittedAt
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}
