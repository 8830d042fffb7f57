package exec

import (
	"context"
	"errors"
	"testing"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/leakcheck"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/sched"
)

// TestControllerCancelNoGoroutineLeak cancels a concurrent run mid-flight
// and asserts every worker goroutine exits and every scheduler token is
// returned. The worker pool takes tokens from a shared
// scheduler here — the same composition the gateway uses — so a stuck
// dispatcher or an unreturned token after cancellation fails the test.
func TestControllerCancelNoGoroutineLeak(t *testing.T) {
	defer leakcheck.Check(t)

	tok := sched.New(4, 0)
	for i := 0; i < 5; i++ {
		w, store := pipelineFixture(t)
		g, _, err := w.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		order, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		plan := core.NewPlan(order)

		ctx, cancel := context.WithCancel(context.Background())
		cancelled := false
		canceller := obs.Func(func(e obs.Event) {
			if e.Kind == obs.NodeDone && !cancelled {
				cancelled = true
				cancel()
			}
		})
		ctl := &Controller{
			Store: store, Mem: memcat.New(1 << 20), Obs: canceller,
			Encoding:    &encoding.Options{},
			Concurrency: 4, Sched: tok,
		}
		_, err = ctl.Run(ctx, w, g, plan)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want nil or context.Canceled", i, err)
		}
		if st := tok.Stats(); st.Idle != st.Tokens {
			t.Fatalf("run %d: scheduler tokens leaked after cancel: %+v", i, st)
		}
	}
}

// TestControllerCompletedRunNoGoroutineLeak is the happy-path twin: a run
// that finishes normally must also wind down its pool completely.
func TestControllerCompletedRunNoGoroutineLeak(t *testing.T) {
	defer leakcheck.Check(t)

	w, store := pipelineFixture(t)
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	tok := sched.New(3, 0)
	ctl := &Controller{
		Store: store, Mem: memcat.New(1 << 20),
		Encoding:    &encoding.Options{},
		Concurrency: 3, Sched: tok,
	}
	if _, err := ctl.Run(context.Background(), w, g, core.NewPlan(order)); err != nil {
		t.Fatal(err)
	}
	if st := tok.Stats(); st.Idle != st.Tokens {
		t.Fatalf("scheduler tokens leaked after completed run: %+v", st)
	}
}
