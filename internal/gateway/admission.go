package gateway

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/shortcircuit-db/sc/internal/introspect"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/sched"
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
	tokens   int   // scheduler tokens to commit alongside the bytes
	deadline time.Time

	mu       sync.Mutex
	canceled bool
	blocked  string // what last held this ticket at the queue head

	// start runs the admitted trigger (called outside the admitter lock);
	// expire finalizes a ticket whose deadline passed while queued.
	start  func(*ticket)
	expire func(*ticket)
}

func (t *ticket) markCanceled() {
	t.mu.Lock()
	t.canceled = true
	t.mu.Unlock()
}

func (t *ticket) isCanceled() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.canceled
}

// setBlocked records why the pump could not admit this ticket, so the
// run's queue-admission span can attribute its wait.
func (t *ticket) setBlocked(reason string) {
	t.mu.Lock()
	t.blocked = reason
	t.mu.Unlock()
}

func (t *ticket) blockedOn() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.blocked
}

// tenantBudget is one tenant's slice of the shared catalog: admission
// reserves against it exactly as against the global pool, so a noisy
// tenant queues behind its own slice instead of starving the others.
type tenantBudget struct {
	slice    int64
	reserved int64
}

// admitter is the scheduler-wide admission controller of the gateway: each
// trigger reserves its predicted footprint against the shared pool AND its
// tenant slice before the refresh is admitted; triggers that do not fit
// wait in a bounded FIFO. Admission is strictly in queue order — a blocked
// head blocks the tail, which is what makes "queues the rest in order"
// testable — and one pipeline never runs two refreshes concurrently (its
// storage objects and session dictionary cache are per-pipeline state).
type admitter struct {
	pool     *memcat.Pool
	sched    *sched.Scheduler // token budget committed alongside bytes; nil skips token gating
	maxQueue int
	now      func() time.Time

	mu      sync.Mutex
	tenants map[string]*tenantBudget
	queue   []*ticket
	busy    map[string]bool // pipelines with an admitted refresh in flight

	// counters for /metrics and Stats
	admitted int64
	enqueued int64
	rejected int64
	expired  int64
}

func newAdmitter(pool *memcat.Pool, sc *sched.Scheduler, maxQueue int, now func() time.Time) *admitter {
	if now == nil {
		now = time.Now
	}
	return &admitter{
		pool:     pool,
		sched:    sc,
		maxQueue: maxQueue,
		now:      now,
		tenants:  make(map[string]*tenantBudget),
		busy:     make(map[string]bool),
	}
}

// addTenant registers a tenant slice; the first registration wins. A
// non-positive slice defaults to the pool capacity (no per-tenant bound
// beyond the global one).
func (a *admitter) addTenant(name string, slice int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.tenants[name]; ok {
		return
	}
	if slice <= 0 || slice > a.pool.Capacity() {
		slice = a.pool.Capacity()
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

// tenantReserved reports a tenant's currently reserved bytes.
func (a *admitter) tenantReserved(name string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t, ok := a.tenants[name]; ok {
		return t.reserved
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

// finish releases a completed refresh's reservation — bytes and scheduler
// tokens — and admits whatever now fits, in order.
func (a *admitter) finish(tenant, pipeline string, need int64, tokens int) {
	a.mu.Lock()
	delete(a.busy, pipeline)
	if tb, ok := a.tenants[tenant]; ok {
		tb.reserved -= need
		if tb.reserved < 0 {
			tb.reserved = 0
		}
	}
	a.pool.Release(need)
	if a.sched != nil {
		a.sched.Uncommit(tokens)
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

// queueSnapshot lists the queued tickets in admission order for the
// introspection layer, each with the reason the pump last recorded for
// not admitting it. Only the head carries a live blocking reason (strict
// FIFO: the tail waits on the head), so deeper entries report
// "queued-behind-head" unless they were once blocked at the head
// themselves.
func (a *admitter) queueSnapshot() []introspect.QueueEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]introspect.QueueEntry, 0, len(a.queue))
	for i, t := range a.queue {
		if t.isCanceled() {
			continue
		}
		qe := introspect.QueueEntry{
			Position:  i,
			Tenant:    t.tenant,
			Pipeline:  t.pipeline,
			NeedBytes: t.need,
			Tokens:    t.tokens,
			Deadline:  t.deadline,
			BlockedOn: t.blockedOn(),
		}
		if i > 0 && qe.BlockedOn == "" {
			qe.BlockedOn = "queued-behind-head"
		}
		out = append(out, qe)
	}
	return out
}

// depth returns the number of queued (not yet admitted) tickets.
func (a *admitter) depth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

func (a *admitter) counters() (admitted, enqueued, rejected, expired int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitted, a.enqueued, a.rejected, a.expired
}

// pumpLocked drains the queue head-first: canceled and expired tickets are
// removed; the first live ticket is admitted if its pipeline is idle and
// both its tenant slice and the global pool can hold its reservation, else
// pumping stops (strict FIFO). It returns the tickets to start and to
// expire; callers invoke their callbacks after releasing a.mu, so a start
// callback can re-enter the admitter. Callers hold a.mu.
func (a *admitter) pumpLocked() (started, expired []*ticket) {
	now := a.now()
	for len(a.queue) > 0 {
		head := a.queue[0]
		if head.isCanceled() {
			a.queue = a.queue[1:]
			continue
		}
		if !head.deadline.IsZero() && now.After(head.deadline) {
			a.queue = a.queue[1:]
			a.expired++
			expired = append(expired, head)
			continue
		}
		if a.busy[head.pipeline] {
			head.setBlocked("pipeline-busy")
			break
		}
		tb := a.tenants[head.tenant]
		if tb == nil || tb.reserved+head.need > tb.slice {
			head.setBlocked("tenant-slice")
			break
		}
		if !a.pool.TryReserve(head.need) {
			head.setBlocked("catalog-bytes")
			break
		}
		// The run's node-pool width is soft-committed against the scheduler
		// token budget, so admission bounds planned cores exactly as it
		// bounds planned bytes. Commitments don't consume runtime tokens —
		// they cap how many runs' worth of width can be in flight at once.
		if a.sched != nil && !a.sched.TryCommit(head.tokens) {
			a.pool.Release(head.need)
			head.setBlocked("sched-tokens")
			break
		}
		tb.reserved += head.need
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
