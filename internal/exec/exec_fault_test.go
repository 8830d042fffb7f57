package exec

import (
	"context"
	"errors"
	"testing"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/memcat"
)

// faultFixture arms a faulty store around the sales pipeline fixture.
func faultFixture(t *testing.T) (*Workload, *faulty) {
	t.Helper()
	w, inner := pipelineFixture(t)
	return w, newFaulty(inner)
}

func TestRunSurfacesBaseTableReadFault(t *testing.T) {
	w, store := faultFixture(t)
	store.FailRead("sales.sct")
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	order, _ := g.TopoSort()
	ctl := &Controller{Store: store, Mem: memcat.New(1 << 20)}
	_, err = ctl.Run(context.Background(), w, g, core.NewPlan(order))
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected read fault", err)
	}
}

func TestRunSurfacesSynchronousWriteFault(t *testing.T) {
	w, store := faultFixture(t)
	store.FailWrite("mv_top.sct")
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	order, _ := g.TopoSort()
	ctl := &Controller{Store: store, Mem: memcat.New(1 << 20)}
	_, err = ctl.Run(context.Background(), w, g, core.NewPlan(order))
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected write fault", err)
	}
}

func TestRunSurfacesBackgroundMaterializationFault(t *testing.T) {
	w, store := faultFixture(t)
	store.FailWrite("mv_daily.sct") // flagged: written in the background
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	order, _ := g.TopoSort()
	plan := core.NewPlan(order)
	plan.Flagged[0] = true // mv_daily
	ctl := &Controller{Store: store, Mem: memcat.New(1 << 20)}
	_, err = ctl.Run(context.Background(), w, g, plan)
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected background-write fault", err)
	}
}

func TestDownstreamStillServedFromMemoryWhenMaterializationFails(t *testing.T) {
	// Even though mv_daily's materialization fails, its children read it
	// from the Memory Catalog and complete; the run then reports the
	// background error after finishing.
	w, store := faultFixture(t)
	store.FailWrite("mv_daily.sct")
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	order, _ := g.TopoSort()
	plan := core.NewPlan(order)
	plan.Flagged[0] = true
	ctl := &Controller{Store: store, Mem: memcat.New(1 << 20)}
	_, err = ctl.Run(context.Background(), w, g, plan)
	if err == nil {
		t.Fatal("background fault swallowed")
	}
	// The downstream MVs were still produced and persisted.
	for _, name := range []string{"mv_top", "mv_count"} {
		if _, err := LoadTable(store, name); err != nil {
			t.Fatalf("%s missing after background fault: %v", name, err)
		}
	}
}

func TestRunStopsAtFirstFailureAfterN(t *testing.T) {
	w, store := faultFixture(t)
	store.FailWriteAfter = 1 // first MV write succeeds, second fails
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	order, _ := g.TopoSort()
	ctl := &Controller{Store: store, Mem: memcat.New(1 << 20)}
	_, err = ctl.Run(context.Background(), w, g, core.NewPlan(order))
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v", err)
	}
}
