package server

import (
	"slices"
	"sync"
)

// fairQueue is the submission queue behind the job API: a bounded
// multi-tenant queue that dequeues round-robin across tenants instead
// of strictly FIFO, so one tenant bulk-submitting a campaign cannot
// starve another's single job behind it. Within a tenant, order stays
// FIFO — which also preserves the exact pre-multi-tenant behaviour
// when every job belongs to the same (possibly anonymous "") tenant.
//
// The queue is a passive data structure plus a wake-up channel; the
// worker pool polls pop and parks on notify when the queue is empty.
type fairQueue struct {
	mu       sync.Mutex
	limit    int
	size     int
	byTenant map[string][]*Job
	// ring holds the tenants that currently have queued jobs, in
	// round-robin order; next indexes the tenant to serve first.
	ring []string
	next int
	// notify wakes one parked worker after a push. Buffered so a push
	// with no parked worker does not block; workers re-poll pop until
	// it returns nil, so a single token is enough.
	notify chan struct{}
}

func newFairQueue(limit int) *fairQueue {
	return &fairQueue{
		limit:    limit,
		byTenant: make(map[string][]*Job),
		notify:   make(chan struct{}, 1),
	}
}

// full reports whether the queue is at capacity.
func (q *fairQueue) full() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size >= q.limit
}

// push enqueues j under its tenant. The caller has seen the queue not
// full, with no push since.
func (q *fairQueue) push(j *Job) {
	q.mu.Lock()
	if _, ok := q.byTenant[j.Tenant]; !ok {
		q.ring = append(q.ring, j.Tenant)
	}
	q.byTenant[j.Tenant] = append(q.byTenant[j.Tenant], j)
	q.size++
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// pop dequeues the next job round-robin across tenants, or nil when
// the queue is empty.
func (q *fairQueue) pop() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 {
		return nil
	}
	if q.next >= len(q.ring) {
		q.next = 0
	}
	tenant := q.ring[q.next]
	jobs := q.byTenant[tenant]
	j := jobs[0]
	if len(jobs) == 1 {
		delete(q.byTenant, tenant)
		q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
		// q.next now points at the following tenant already.
	} else {
		q.byTenant[tenant] = jobs[1:]
		q.next++
	}
	q.size--
	return j
}

// remove takes a job canceled while queued out of the queue, freeing its
// slot. A job a worker popped first is no longer there and is left alone.
func (q *fairQueue) remove(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	jobs := q.byTenant[j.Tenant]
	k := slices.Index(jobs, j)
	if k < 0 {
		return
	}
	q.size--
	if len(jobs) > 1 {
		q.byTenant[j.Tenant] = slices.Delete(jobs, k, k+1)
		return
	}
	delete(q.byTenant, j.Tenant)
	r := slices.Index(q.ring, j.Tenant)
	q.ring = slices.Delete(q.ring, r, r+1)
	if r < q.next {
		q.next-- // keep pointing at the tenant to serve next
	}
}
