package gateway

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/shortcircuit-db/sc/internal/introspect"
)

// ErrQueueFull reports that the refresh queue is at capacity; the HTTP
// layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("gateway: refresh queue full")

// ticket is one trigger awaiting admission: a predicted catalog footprint
// to reserve, the tenant slice and pipeline it belongs to, and a deadline
// after which queuing is pointless.
type ticket struct {
	tenant   string
	pipeline string
	need     int64 // predicted footprint to reserve (bytes)
	tokens   int   // node-pool width to commit alongside the bytes
	deadline time.Time

	// blocked is what last held this ticket at the queue head, so the run's
	// queue-admission span can attribute its wait. The pump writes it under
	// the admitter lock while the ticket is queued; once the pump takes the
	// ticket off the queue it no longer changes, so start reads it freely.
	blocked string

	// start runs the admitted trigger (called outside the admitter lock);
	// expire finalizes a ticket whose deadline passed while queued.
	start  func(*ticket)
	expire func(*ticket)
}

// tenantBudget is one tenant's slice of the shared catalog: admission
// reserves against it exactly as against the global capacity, so a noisy
// tenant queues behind its own slice instead of starving the others.
type tenantBudget struct {
	slice    int64
	reserved int64
}

// admitter is the gateway's admission controller and the one keeper of its
// books: each trigger reserves its predicted footprint against the global
// capacity AND its tenant slice, and commits its node-pool width against
// the token budget, before the refresh is admitted; triggers that do not
// fit wait in a bounded FIFO. Admission is strictly in queue order — a
// blocked head blocks the tail, which is what makes "queues the rest in
// order" testable — and one pipeline never runs two refreshes concurrently
// (its storage objects and learned metrics are per-pipeline state).
type admitter struct {
	capacity int64 // global catalog bytes
	tokens   int   // token budget; <= 0 skips token gating
	maxQueue int
	now      func() time.Time

	mu           sync.Mutex
	tenants      map[string]*tenantBudget
	queue        []*ticket
	busy         map[string]bool // pipelines with an admitted refresh in flight
	reserved     int64           // bytes the admitted runs hold
	peakReserved int64
	// committed is the admitted runs' node-pool width. Commitments take no
	// runtime token (runs acquire those as they execute); they cap how many
	// runs' worth of width is in flight at once.
	committed int

	// counters for /metrics and Stats
	admitted int64
	enqueued int64
	rejected int64
	expired  int64
}

func newAdmitter(capacity int64, tokens int, maxQueue int, now func() time.Time) *admitter {
	if now == nil {
		now = time.Now
	}
	return &admitter{
		capacity: capacity,
		tokens:   tokens,
		maxQueue: maxQueue,
		now:      now,
		tenants:  make(map[string]*tenantBudget),
		busy:     make(map[string]bool),
	}
}

// addTenant registers a tenant slice; the first registration wins. A
// non-positive slice defaults to the global capacity (no per-tenant bound
// beyond the global one).
func (a *admitter) addTenant(name string, slice int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.tenants[name]; ok {
		return
	}
	if slice <= 0 || slice > a.capacity {
		slice = a.capacity
	}
	a.tenants[name] = &tenantBudget{slice: slice}
}

// tenantSlice reports a tenant's configured slice.
func (a *admitter) tenantSlice(name string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t, ok := a.tenants[name]; ok {
		return t.slice
	}
	return 0
}

// submit offers a ticket: it is either admitted immediately (start is
// invoked and submit returns true), queued (false, nil), or rejected with
// ErrQueueFull. The ticket's need must already be clamped to its tenant
// slice, so every ticket is eventually admittable.
func (a *admitter) submit(t *ticket) (bool, error) {
	a.mu.Lock()
	if _, ok := a.tenants[t.tenant]; !ok {
		a.mu.Unlock()
		return false, fmt.Errorf("gateway: unknown tenant %q", t.tenant)
	}
	if len(a.queue) >= a.maxQueue {
		a.rejected++
		a.mu.Unlock()
		return false, ErrQueueFull
	}
	a.queue = append(a.queue, t)
	a.enqueued++
	started, expired := a.pumpLocked()
	a.mu.Unlock()
	admittedNow := dispatch(t, started, expired)
	return admittedNow, nil
}

// finish credits back what admitting t debited — its bytes, globally and
// on its tenant, and its tokens — and admits whatever now fits, in order.
// A credit that drives a book below zero means t was finished twice, or
// never admitted: it panics.
func (a *admitter) finish(t *ticket) {
	a.mu.Lock()
	delete(a.busy, t.pipeline)
	tb := a.tenants[t.tenant]
	tb.reserved -= t.need
	a.reserved -= t.need
	a.committed -= t.tokens
	if tb.reserved < 0 || a.reserved < 0 || a.committed < 0 {
		a.mu.Unlock()
		panic(fmt.Sprintf("gateway: admission credit below zero finishing %s (%d B, %d tokens)", t.pipeline, t.need, t.tokens))
	}
	started, expired := a.pumpLocked()
	a.mu.Unlock()
	dispatch(nil, started, expired)
}

// reap expires overdue queued tickets; the server calls it periodically so
// deadlines are honored even when no refresh completes.
func (a *admitter) reap() {
	a.mu.Lock()
	started, expired := a.pumpLocked()
	a.mu.Unlock()
	dispatch(nil, started, expired)
}

// cancel drops a still-queued ticket, so it holds no queue slot and no
// read surface counts it. A ticket the pump already took is left to its
// callback, which finds the run no longer queued.
func (a *admitter) cancel(t *ticket) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i := slices.Index(a.queue, t); i >= 0 {
		a.queue = slices.Delete(a.queue, i, i+1)
	}
}

// admission is the admitter's part of a server snapshot: the queued
// tickets in admission order, the counters, the books, and every tenant's
// slice and reserved bytes, all read under one a.mu.
type admission struct {
	queue                                 []introspect.QueueEntry
	admitted, enqueued, rejected, expired int64
	reserved, peakReserved                int64
	committed                             int
	tenants                               map[string]tenantBudget
}

// snapshot reads the admitter for a server snapshot. Each queue entry
// carries the reason the pump last recorded for not admitting it. Only the
// head carries a live blocking reason (strict FIFO: the tail waits on the
// head), so deeper entries report "queued-behind-head" unless they were
// once blocked at the head themselves.
func (a *admitter) snapshot() admission {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := admission{
		queue:    make([]introspect.QueueEntry, 0, len(a.queue)),
		admitted: a.admitted, enqueued: a.enqueued, rejected: a.rejected, expired: a.expired,
		reserved: a.reserved, peakReserved: a.peakReserved, committed: a.committed,
		tenants: make(map[string]tenantBudget, len(a.tenants)),
	}
	for name, tb := range a.tenants {
		st.tenants[name] = *tb
	}
	for i, t := range a.queue {
		qe := introspect.QueueEntry{
			Position:  i,
			Tenant:    t.tenant,
			Pipeline:  t.pipeline,
			NeedBytes: t.need,
			Tokens:    t.tokens,
			Deadline:  t.deadline,
			BlockedOn: t.blocked,
		}
		if i > 0 && qe.BlockedOn == "" {
			qe.BlockedOn = "queued-behind-head"
		}
		st.queue = append(st.queue, qe)
	}
	return st
}

// pumpLocked drains the queue head-first: expired tickets are removed; the
// first live ticket is admitted if its pipeline is idle, both its tenant
// slice and the global capacity can hold its reservation and the token
// budget its commitment, else pumping stops (strict FIFO). It returns the
// tickets to start and to expire; callers invoke their callbacks after
// releasing a.mu, so a start callback can re-enter the admitter. Callers
// hold a.mu.
func (a *admitter) pumpLocked() (started, expired []*ticket) {
	now := a.now()
	for len(a.queue) > 0 {
		head := a.queue[0]
		if !head.deadline.IsZero() && now.After(head.deadline) {
			a.queue = a.queue[1:]
			a.expired++
			expired = append(expired, head)
			continue
		}
		if a.busy[head.pipeline] {
			head.blocked = "pipeline-busy"
			break
		}
		tb := a.tenants[head.tenant]
		if tb == nil || tb.reserved+head.need > tb.slice {
			head.blocked = "tenant-slice"
			break
		}
		if a.reserved+head.need > a.capacity {
			head.blocked = "catalog-bytes"
			break
		}
		if a.tokens > 0 && a.committed+head.tokens > a.tokens {
			head.blocked = "sched-tokens"
			break
		}
		tb.reserved += head.need
		a.reserved += head.need
		a.peakReserved = max(a.peakReserved, a.reserved)
		a.committed += head.tokens
		a.busy[head.pipeline] = true
		a.queue = a.queue[1:]
		a.admitted++
		started = append(started, head)
	}
	return started, expired
}

// dispatch invokes the pump's verdicts outside the admitter lock and
// reports whether the submitted ticket (nil for finish/reap callers) was
// among those started.
func dispatch(submitted *ticket, started, expired []*ticket) bool {
	admittedNow := false
	for _, t := range expired {
		if t.expire != nil {
			t.expire(t)
		}
	}
	for _, t := range started {
		if t == submitted {
			admittedNow = true
		}
		if t.start != nil {
			t.start(t)
		}
	}
	return admittedNow
}
