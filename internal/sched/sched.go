// Package sched is S/C's scheduler-wide token budget: one pool of worker
// tokens (one token ≈ one core's worth of work) shared by every layer that
// creates parallelism — the exec Controller's node dispatcher and gateway
// admission. A token is a node: a Controller running k nodes holds k
// tokens, and a node runs on its one token alone, so k tokens bound the
// concurrent nodes of every run sharing the pool.
package sched

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Scheduler is a fixed-size token pool. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Scheduler struct {
	tokens int
	ch     chan struct{}

	committed atomic.Int64 // admission-side soft commitments, in tokens
}

// New builds a scheduler with the given token count; tokens < 1 defaults to
// GOMAXPROCS. The second argument is ignored: the pool has no byte
// ceiling.
func New(tokens int, _ int64) *Scheduler {
	if tokens < 1 {
		tokens = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{tokens: tokens, ch: make(chan struct{}, tokens)}
	for i := 0; i < tokens; i++ {
		s.ch <- struct{}{}
	}
	return s
}

// Tokens returns the pool size.
func (s *Scheduler) Tokens() int { return s.tokens }

// TokenCh exposes the pool for select-based blocking acquisition: a
// receive that succeeds grants one token, which must be returned with
// Release.
func (s *Scheduler) TokenCh() <-chan struct{} { return s.ch }

// Acquire blocks until a token is available.
func (s *Scheduler) Acquire() { <-s.ch }

// Release returns one token to the pool. Releasing more tokens than were
// acquired panics: it means two layers think they own the same token.
func (s *Scheduler) Release() {
	select {
	case s.ch <- struct{}{}:
	default:
		panic("sched: Release without matching acquire")
	}
}

// TryCommit records an admission-side soft commitment of n tokens — the
// planned width of a run about to be admitted — failing when commitments
// would exceed the pool size. Commitments do not remove runtime tokens
// (runs acquire those as they execute); they bound how much planned
// parallelism admission lets in at once. Undo with Uncommit.
func (s *Scheduler) TryCommit(n int) bool {
	if n <= 0 {
		return true
	}
	for {
		cur := s.committed.Load()
		if cur+int64(n) > int64(s.tokens) {
			return false
		}
		if s.committed.CompareAndSwap(cur, cur+int64(n)) {
			return true
		}
	}
}

// Uncommit returns a TryCommit commitment.
func (s *Scheduler) Uncommit(n int) {
	if n <= 0 {
		return
	}
	if s.committed.Add(-int64(n)) < 0 {
		panic(fmt.Sprintf("sched: Uncommit(%d) below zero", n))
	}
}

// Committed returns the current admission commitment, in tokens.
func (s *Scheduler) Committed() int { return int(s.committed.Load()) }

// Snapshot is a point-in-time view of the pool for gauges, tests and the
// introspection layer (it serializes into GET /v1/state/sched).
type Snapshot struct {
	Tokens    int `json:"tokens"`           // pool size
	Idle      int `json:"tokens_idle"`      // tokens currently in the pool
	InFlight  int `json:"tokens_in_flight"` // tokens handed out right now
	Committed int `json:"tokens_committed"` // admission soft commitments
}

// Stats returns a snapshot of the pool.
func (s *Scheduler) Stats() Snapshot {
	idle := len(s.ch)
	return Snapshot{
		Tokens:    s.tokens,
		Idle:      idle,
		InFlight:  s.tokens - idle,
		Committed: int(s.committed.Load()),
	}
}
