// Package sched is S/C's runtime token pool: worker tokens (one token ≈
// one core's worth of work) that every run sharing the pool acquires as it
// executes. A token is a node: a Controller running k nodes holds k
// tokens, and a node runs on its one token alone, so k tokens bound the
// concurrent nodes of every run sharing the pool. Admission commitments —
// how many runs' worth of width may be in flight — are not kept here: the
// gateway's admitter keeps them beside its byte reservations.
package sched

import "runtime"

// Scheduler is a fixed-size token pool. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Scheduler struct {
	tokens int
	ch     chan struct{}
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

// Snapshot is a point-in-time view of the pool for gauges, tests and the
// introspection layer (it serializes into GET /v1/state/sched).
type Snapshot struct {
	Tokens   int `json:"tokens"`           // pool size
	Idle     int `json:"tokens_idle"`      // tokens currently in the pool
	InFlight int `json:"tokens_in_flight"` // tokens handed out right now
}

// Stats returns a snapshot of the pool.
func (s *Scheduler) Stats() Snapshot {
	idle := len(s.ch)
	return Snapshot{Tokens: s.tokens, Idle: idle, InFlight: s.tokens - idle}
}
