package server

import "sync"

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

// cap returns the queue bound.
func (q *fairQueue) cap() int { return q.limit }

// push enqueues j under its tenant, reporting false when the queue is
// at capacity.
func (q *fairQueue) push(j *Job) bool {
	q.mu.Lock()
	if q.size >= q.limit {
		q.mu.Unlock()
		return false
	}
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
	return true
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
