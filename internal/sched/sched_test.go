package sched

import (
	"runtime"
	"sync"
	"testing"
)

// tryTake takes a token if one is idle, without blocking.
func tryTake(s *Scheduler) bool {
	select {
	case <-s.TokenCh():
		return true
	default:
		return false
	}
}

func TestTokenPool(t *testing.T) {
	s := New(2, 0)
	if s.Tokens() != 2 {
		t.Fatalf("Tokens() = %d, want 2", s.Tokens())
	}
	s.Acquire()
	s.Acquire()
	if st := s.Stats(); st.Idle != 0 || st.InFlight != 2 {
		t.Fatalf("two held tokens: unexpected stats %+v", st)
	}
	if tryTake(s) {
		t.Fatal("a third token was granted on a 2-token pool")
	}
	s.Release()
	if !tryTake(s) {
		t.Fatal("released token should be available again")
	}
	s.Release()
	s.Release()
	if st := s.Stats(); st.Idle != 2 || st.InFlight != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release on a full pool should panic")
		}
	}()
	New(1, 0).Release()
}

// TestConcurrentAcquireNeverOversubscribes races 32 goroutines for a 4-token
// pool through both blocking paths — the dispatcher's select on TokenCh and
// Acquire — and checks no more than 4 ever hold a token at once.
func TestConcurrentAcquireNeverOversubscribes(t *testing.T) {
	const tokens = 4
	s := New(tokens, 0)
	var held, peak, mu = 0, 0, sync.Mutex{}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(viaCh bool) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if viaCh {
					<-s.TokenCh()
				} else {
					s.Acquire()
				}
				mu.Lock()
				held++
				if held > peak {
					peak = held
				}
				mu.Unlock()
				runtime.Gosched()
				mu.Lock()
				held--
				mu.Unlock()
				s.Release()
			}
		}(g%2 == 0)
	}
	wg.Wait()
	if peak > tokens {
		t.Fatalf("peak concurrent holders %d > pool size %d", peak, tokens)
	}
	if s.Stats().Idle != tokens {
		t.Fatalf("tokens leaked: %+v", s.Stats())
	}
}

func TestDefaultTokens(t *testing.T) {
	if New(0, 0).Tokens() < 1 {
		t.Fatal("default token count must be at least 1")
	}
}
