package sc_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	sc "github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/table"
)

// serialSession opens a serial row-path session over its own copy of the
// base tables: the configuration in which the optimizer may keep a node's
// serialized bytes resident.
func serialSession(t *testing.T, mvs []sc.MV, tables map[string]*table.Table, opts ...sc.Option) (*sc.Refresher, sc.Store) {
	t.Helper()
	store := sc.NewMemStore()
	for name, tb := range tables {
		if err := sc.SaveTable(store, name, tb); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := sc.New(mvs, store, append([]sc.Option{sc.WithConcurrency(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return ref, store
}

// promptWrites is an observer that makes background writes as prompt as the
// optimizer's memory model takes them to be: it holds every node's start
// until each flagged output whose dependents have all finished has left the
// Memory Catalog. The model releases an output at the step of its last
// child; the Controller also waits for the output's background write, which
// on an in-memory store is a goroutine that has usually, but not always, run
// by the time the next sub-millisecond node wants the space.
type promptWrites struct {
	mu      sync.Mutex
	cond    *sync.Cond
	g       *dag.Graph
	done    map[string]bool // nodes finished in the current run
	evicted map[string]bool // outputs that have left the catalog in it
	waiting map[string]bool // flagged outputs still resident
}

func newPromptWrites() *promptWrites {
	p := &promptWrites{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// overdue reports whether a resident output's dependents have all finished.
func (p *promptWrites) overdue() bool {
	for name := range p.waiting {
		id := p.g.Lookup(name)
		pending := false
		for _, c := range p.g.Children(id) {
			pending = pending || !p.done[p.g.Name(c)]
		}
		if !pending {
			return true
		}
	}
	return false
}

func (p *promptWrites) OnEvent(e sc.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch e.Kind {
	case sc.NodeStart:
		if e.Step == 0 {
			p.done, p.evicted, p.waiting = map[string]bool{}, map[string]bool{}, map[string]bool{}
		}
		for p.overdue() {
			p.cond.Wait()
		}
	case sc.NodeDone:
		p.done[e.Node] = true
		// A childless output can be written and gone before its node
		// reports done.
		if e.Flagged && !p.evicted[e.Node] {
			p.waiting[e.Node] = true
		}
	case sc.Evicted:
		p.evicted[e.Node] = true
		delete(p.waiting, e.Node)
		p.cond.Broadcast()
	}
}

// TestSerializedFormBudgetSweep walks the Memory Catalog budget from
// nothing to unbounded on the 12-MV TPC-DS pipeline under serial dispatch.
// At every budget the optimized refreshes stay within it — the catalog's
// measured peak, not only the plan's — with no output pushed back to a
// blocking write (in plan order, with prompt writes, the model is exact), each
// run keeps resident
// as serialized bytes exactly the nodes its plan named, and every MV on
// storage is byte for byte the one a session with no Memory Catalog writes.
// Somewhere in the sweep the binding budget makes the optimizer use the
// second form, and Explain says so.
func TestSerializedFormBudgetSweep(t *testing.T) {
	ctx := context.Background()
	mvs, tables := tpcdsPipeline(t, 1)
	var base int64
	for _, tb := range tables {
		base += tb.ByteSize()
	}

	naive, naiveStore := serialSession(t, mvs, tables, sc.WithMemory(0))
	if _, err := naive.Refresh(ctx); err != nil {
		t.Fatal(err)
	}

	budgets := map[string]int64{"unbounded": 1 << 50}
	for _, pct := range []int64{0, 5, 10, 15, 20, 30, 50, 100} {
		budgets[fmt.Sprintf("%d%%", pct)] = base * pct / 100
	}
	sawSerialized := false
	for name, budget := range budgets {
		gate := newPromptWrites()
		ref, store := serialSession(t, mvs, tables, sc.WithMemory(budget), sc.WithObserver(gate))
		gate.g = ref.Graph()
		if _, err := ref.Refresh(ctx); err != nil { // observes sizes; plans from them
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			plan := ref.Plan()
			rep, err := ref.Explain(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rep.PeakBytes > budget {
				t.Errorf("budget %s: plan peaks at %d of %d bytes", name, rep.PeakBytes, budget)
			}
			res, err := ref.Refresh(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res.PeakMemory > budget || res.FallbackWrites != 0 {
				t.Errorf("budget %s run %d: peak %d of %d bytes, %d fallback writes", name, run, res.PeakMemory, budget, res.FallbackWrites)
			}
			for i, n := range res.Nodes {
				id := plan.Order[i]
				d := rep.Decisions[i]
				if d.Node != n.Name || n.Flagged != plan.Flagged[id] {
					t.Fatalf("budget %s: step %d ran %s flagged=%v, plan has %s flagged=%v", name, i, n.Name, n.Flagged, d.Node, plan.Flagged[id])
				}
				serialized := n.Flagged && plan.FormOf(id) == core.Serialized
				want := int64(0)
				switch {
				case serialized:
					want = n.EncodedSize
					sawSerialized = true
				case n.Flagged:
					want = n.OutputBytes
				}
				if n.CatalogBytes != want || d.ChargedBytes != want || (d.Form == "serialized") != serialized {
					t.Errorf("budget %s: %s resident at %d bytes, explained as %s at %d, want %d", name, n.Name, n.CatalogBytes, d.Form, d.ChargedBytes, want)
				}
			}
		}
		rep, err := ref.Explain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		serialized := 0
		for _, d := range rep.Decisions {
			if d.Form == "serialized" {
				serialized++
			}
		}
		t.Logf("budget %s (%d bytes): %d of %d flagged, %d of them serialized", name, budget, rep.FlaggedCount, rep.Nodes, serialized)
		for _, mv := range mvs {
			obj := mv.Name + ".sct"
			want, err := naiveStore.Read(obj)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := store.Read(obj); err != nil || !bytes.Equal(got, want) {
				t.Errorf("budget %s: MV %s differs from the session without a Memory Catalog (%v)", name, mv.Name, err)
			}
		}
	}
	if !sawSerialized {
		t.Error("no budget of the sweep kept a node resident as serialized bytes")
	}
}

// TestSerializedFormPlanValidation: a hand-built plan reaches the Controller
// through Refresher.RunPlan, which must reject forms that do not fit the
// plan or the run instead of running them.
func TestSerializedFormPlanValidation(t *testing.T) {
	ctx := context.Background()
	mvs, tables := tpcdsPipeline(t, 0.1)
	ref, _ := serialSession(t, mvs, tables, sc.WithMemory(1<<30))
	order, err := ref.Graph().TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	flagged, unflagged := order[0], order[1]
	withForms := func(mark sc.NodeID) *sc.Plan {
		pl := &sc.Plan{Order: order, Flagged: make([]bool, len(order)), Forms: make([]core.Form, len(order))}
		pl.Flagged[flagged] = true
		pl.Forms[mark] = core.Serialized
		return pl
	}

	if _, err := ref.RunPlan(ctx, withForms(flagged)); err != nil {
		t.Fatalf("a flagged node kept serialized on the row path: %v", err)
	}
	short := withForms(flagged)
	short.Forms = short.Forms[:len(short.Forms)-1]
	for name, tc := range map[string]struct {
		ref  *sc.Refresher
		plan *sc.Plan
	}{
		"short forms slice":         {ref, short},
		"unflagged node serialized": {ref, withForms(unflagged)},
		"serialized under encoding": {encodedSession(t, mvs, tables), withForms(flagged)},
	} {
		res, err := tc.ref.RunPlan(ctx, tc.plan)
		if err == nil || !strings.Contains(err.Error(), "exec: core:") || res != nil {
			t.Errorf("%s: RunPlan = %v, %v", name, res, err)
		}
	}
}

// encodedSession is serialSession with the compressed columnar subsystem on.
func encodedSession(t *testing.T, mvs []sc.MV, tables map[string]*table.Table) *sc.Refresher {
	t.Helper()
	ref, _ := serialSession(t, mvs, tables, sc.WithMemory(1<<30), sc.WithEncoding(sc.EncodingOptions{}))
	return ref
}
