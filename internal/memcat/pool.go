package memcat

import "sync"

// Pool is a shared Memory Catalog budget partitioned across many catalogs:
// the gateway's tenants each run refreshes against their own Catalog (so
// entry names never collide across pipelines), while every byte those
// catalogs hold is accounted against one global capacity. Admission control
// reserves a run's predicted footprint with TryReserve before the run is
// allowed to allocate, so the sum of in-flight reservations — an upper
// bound on actual usage when each run's catalog capacity equals its
// reservation — never exceeds the pool capacity. The paper's bounded-memory
// guarantee then holds under concurrent workloads, not just within one run.
type Pool struct {
	mu       sync.Mutex
	capacity int64
	reserved int64 // admission reservations currently held
	used     int64 // actual bytes across attached catalogs
	peakUsed int64
	peakRes  int64
}

// NewPool returns a pool with the given global byte capacity.
func NewPool(capacity int64) *Pool {
	if capacity < 0 {
		capacity = 0
	}
	return &Pool{capacity: capacity}
}

// Capacity returns the configured global budget.
func (p *Pool) Capacity() int64 { return p.capacity }

// TryReserve reserves n bytes of the global budget, failing (without side
// effects) when the reservation would exceed capacity. n <= 0 always
// succeeds.
func (p *Pool) TryReserve(n int64) bool {
	if n <= 0 {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.reserved+n > p.capacity {
		return false
	}
	p.reserved += n
	if p.reserved > p.peakRes {
		p.peakRes = p.reserved
	}
	return true
}

// Release returns n reserved bytes to the pool.
func (p *Pool) Release(n int64) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reserved -= n
	if p.reserved < 0 {
		p.reserved = 0
	}
}

// PoolStats is one reading of a pool: its capacity, the bytes admission
// reservations hold, the bytes attached catalogs hold, and the high-water
// mark of each — the numbers a benchmark compares against Capacity to show
// the memory bound held under contention.
type PoolStats struct {
	Capacity     int64
	Reserved     int64
	Used         int64
	PeakUsed     int64
	PeakReserved int64
}

// Stats reads every counter of the pool under one lock, so the fields of
// one reading are mutually consistent.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Capacity:     p.capacity,
		Reserved:     p.reserved,
		Used:         p.used,
		PeakUsed:     p.peakUsed,
		PeakReserved: p.peakRes,
	}
}

// NewCatalog returns a catalog with the given capacity whose entry bytes
// are additionally accounted against the pool. Callers enforce capacity <=
// their reservation; the catalog's own budget is what bounds its usage.
func (p *Pool) NewCatalog(capacity int64) *Catalog {
	c := New(capacity)
	c.pool = p
	return c
}

// charge folds a catalog's usage delta into the pool's aggregate.
func (p *Pool) charge(delta int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.used += delta
	if p.used < 0 {
		p.used = 0
	}
	if p.used > p.peakUsed {
		p.peakUsed = p.used
	}
}
