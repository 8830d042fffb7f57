package exec

import (
	"context"
	"errors"
	"testing"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/obs"
)

// TestCancelReleasesFlaggedEntries is the regression test for the
// cancellation sweep: a run cancelled after a flagged output was created
// but before all its dependents executed must leave the Memory Catalog
// exactly as it found it — no stranded entries, no stale decoded views.
// Before the sweep existed, the release protocol (all dependents executed
// AND materialization done) never fired for such entries and a long-lived
// catalog leaked their bytes forever.
func TestCancelReleasesFlaggedEntries(t *testing.T) {
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
	plan.Flagged[0] = true // mv_daily: two dependents, only one will run

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel after the first dependent finishes: mv_daily has been Put (and
	// read once, so a decoded view exists), but its second dependent never
	// executes — the release protocol alone would strand the entry.
	firstChildDone := false
	canceller := obs.Func(func(e obs.Event) {
		if e.Kind == obs.NodeDone && e.Node != "mv_daily" && !firstChildDone {
			firstChildDone = true
			cancel()
		}
	})

	pool := memcat.NewPool(1 << 20)
	mem := pool.NewCatalog(1 << 20)
	enc := encoding.Options{}
	ctl := &Controller{Store: store, Mem: mem, Obs: canceller, Encoding: &enc}
	_, err = ctl.Run(ctx, w, g, plan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	if used := mem.Used(); used != 0 {
		t.Fatalf("catalog Used = %d after cancelled run, want 0 (stranded flagged entries)", used)
	}
	if _, err := mem.Size("mv_daily"); err == nil {
		t.Fatal("mv_daily still resident after cancelled run")
	}
	if got := pool.Stats().Used; got != 0 {
		t.Fatalf("shared pool Used = %d after cancelled run, want 0", got)
	}
	if left := mem.Detach(); left != 0 {
		t.Fatalf("Detach credited %d leftover bytes, want 0", left)
	}
}

// TestCancelSweepEmitsEviction pins the observable half of the sweep: the
// stranded entry leaves through the same Evicted event a normal release
// emits, so metrics and dashboards see the bytes go.
func TestCancelSweepEmitsEviction(t *testing.T) {
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
	plan.Flagged[0] = true

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	evicted := make(map[string]bool)
	o := obs.Func(func(e obs.Event) {
		switch e.Kind {
		case obs.NodeDone:
			if e.Node == "mv_daily" {
				cancel() // no dependent ever runs
			}
		case obs.Evicted:
			evicted[e.Node] = true
		}
	})
	ctl := &Controller{Store: store, Mem: memcat.New(1 << 20), Obs: o}
	if _, err := ctl.Run(ctx, w, g, plan); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !evicted["mv_daily"] {
		t.Fatal("sweep did not emit Evicted for the stranded entry")
	}
}
