package exec

import (
	"context"
	"sync"
	"testing"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/storage"
)

// gatedStore holds the write of object held until its gate opens: when
// open runs, or when object openOn is written, whichever comes first — so
// a run that never calls open still finishes.
type gatedStore struct {
	storage.Store
	held   string
	openOn string
	gate   chan struct{}
	once   sync.Once
}

func (g *gatedStore) open() { g.once.Do(func() { close(g.gate) }) }

func (g *gatedStore) Write(name string, data []byte) error {
	switch name {
	case g.held:
		<-g.gate
	case g.openOn:
		g.open()
	}
	return g.Store.Write(name, data)
}

// TestPutAwaitsReleaseOnlyWrites pins the wait before the fallback write: a
// flagged output whose dependents have all executed but whose background
// write has not finished still holds its catalog bytes, and the next node's
// Put must wait that write out instead of falling back to a foreground
// write. mv_daily's write is held until the wait begins (or, without the
// wait, until mv_copy's fallback write shows up); mv_copy only fits once
// mv_daily has left.
func TestPutAwaitsReleaseOnlyWrites(t *testing.T) {
	w, store := pipelineFixture(t)
	w.Nodes = append(w.Nodes[:2], NodeSpec{Name: "mv_copy", SQL: `SELECT day, item, amount FROM sales`})
	sales, err := LoadTable(store, "sales")
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	// Plan order mv_daily, mv_top, mv_copy on one token.
	plan := core.NewPlan([]dag.NodeID{0, 1, 2})
	plan.Flagged[0], plan.Flagged[2] = true, true

	gs := &gatedStore{Store: store, held: tableObject("mv_daily"), openOn: tableObject("mv_copy"), gate: make(chan struct{})}
	// Room for mv_copy (a copy of sales) but not for mv_daily beside it.
	mem := memcat.New(sales.ByteSize() + 1)
	ctl := &Controller{Store: gs, Mem: mem, awaitHook: gs.open}
	res, err := ctl.Run(context.Background(), w, g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.FallbackWrites != 0 {
		t.Fatalf("mv_copy fell back to a foreground write (%d) while mv_daily's release waited only on its write", res.FallbackWrites)
	}
	for _, m := range res.Nodes {
		if m.Name == "mv_copy" && !m.Flagged {
			t.Fatal("mv_copy did not stay in the Memory Catalog")
		}
	}
	got, err := LoadTable(store, "mv_copy")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != sales.NumRows() || got.ByteSize() != sales.ByteSize() {
		t.Fatalf("mv_copy has %d rows %d B, want %d rows %d B", got.NumRows(), got.ByteSize(), sales.NumRows(), sales.ByteSize())
	}
}
