package memcat

import "sync"

// Pool is the usage side of a shared Memory Catalog budget partitioned
// across many catalogs: the gateway's tenants each run refreshes against
// their own Catalog (so entry names never collide across pipelines), while
// every byte those catalogs hold is counted here against one global
// capacity. The pool reserves nothing: admission (the gateway's admitter)
// keeps the books of what each run may hold, and sizes each run's catalog
// to its reservation, so the bytes counted here never exceed what
// admission reserved. The paper's bounded-memory guarantee then holds
// under concurrent workloads, not just within one run.
type Pool struct {
	mu       sync.Mutex
	capacity int64
	used     int64 // actual bytes across attached catalogs
	peakUsed int64
}

// NewPool returns a pool with the given global byte capacity.
func NewPool(capacity int64) *Pool {
	if capacity < 0 {
		capacity = 0
	}
	return &Pool{capacity: capacity}
}

// PoolStats is one reading of a pool: its capacity, the bytes attached
// catalogs hold and their high-water mark — the numbers a benchmark
// compares against Capacity to show the memory bound held under
// contention.
type PoolStats struct {
	Capacity int64
	Used     int64
	PeakUsed int64
}

// Stats reads every counter of the pool under one lock, so the fields of
// one reading are mutually consistent.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Capacity: p.capacity, Used: p.used, PeakUsed: p.peakUsed}
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
