package exec

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
)

// pipelineFixture stores a sales base table and returns a 3-node workload:
//
//	sales ─→ mv_daily ─→ mv_top
//	              └────→ mv_count
func pipelineFixture(t *testing.T) (*Workload, storage.Store) {
	t.Helper()
	store := storage.NewMemStore()
	sales := table.New(table.NewSchema(
		table.Column{Name: "day", Type: table.Int},
		table.Column{Name: "item", Type: table.Str},
		table.Column{Name: "amount", Type: table.Float},
	))
	rows := []struct {
		day    int64
		item   string
		amount float64
	}{
		{1, "ale", 10}, {1, "bock", 5}, {2, "ale", 7}, {2, "ale", 3}, {3, "stout", 20},
	}
	for _, r := range rows {
		if err := sales.AppendRow(table.IntValue(r.day), table.StrValue(r.item), table.FloatValue(r.amount)); err != nil {
			t.Fatal(err)
		}
	}
	if err := SaveTable(store, "sales", sales); err != nil {
		t.Fatal(err)
	}
	w := &Workload{Nodes: []NodeSpec{
		{Name: "mv_daily", SQL: `SELECT day, SUM(amount) AS revenue FROM sales GROUP BY day`},
		{Name: "mv_top", SQL: `SELECT day, revenue FROM mv_daily WHERE revenue >= 10 ORDER BY revenue DESC`},
		{Name: "mv_count", SQL: `SELECT COUNT(*) AS days FROM mv_daily`},
	}}
	return w, store
}

func TestBuildGraph(t *testing.T) {
	w, _ := pipelineFixture(t)
	g, base, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 || g.NumEdges() != 2 {
		t.Fatalf("graph: %d nodes %d edges", g.Len(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) {
		t.Fatalf("edges = %v", g.Edges())
	}
	if len(base[0]) != 1 || base[0][0] != "sales" {
		t.Fatalf("base[0] = %v", base[0])
	}
	if len(base[1]) != 0 || len(base[2]) != 0 {
		t.Fatalf("base = %v", base)
	}
}

func TestBuildGraphRejectsDuplicatesAndCycles(t *testing.T) {
	dup := &Workload{Nodes: []NodeSpec{
		{Name: "a", SQL: "SELECT x FROM t"},
		{Name: "a", SQL: "SELECT x FROM t"},
	}}
	if _, _, err := dup.BuildGraph(); err == nil {
		t.Fatal("duplicate names accepted")
	}
	cyc := &Workload{Nodes: []NodeSpec{
		{Name: "a", SQL: "SELECT x FROM b"},
		{Name: "b", SQL: "SELECT x FROM a"},
	}}
	if _, _, err := cyc.BuildGraph(); err == nil {
		t.Fatal("cycle accepted")
	}
}

func runPipeline(t *testing.T, flagDaily bool) (*RunResult, storage.Store) {
	t.Helper()
	return runPipelineOn(t, flagDaily, func(s storage.Store) storage.Store { return s })
}

// runPipelineOn is runPipeline with the fixture's store behind wrap.
func runPipelineOn(t *testing.T, flagDaily bool, wrap func(storage.Store) storage.Store) (*RunResult, storage.Store) {
	t.Helper()
	w, store := pipelineFixture(t)
	store = wrap(store)
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	plan := core.NewPlan(order)
	if flagDaily {
		plan.Flagged[0] = true
	}
	ctl := &Controller{Store: store, Mem: memcat.New(1 << 20)}
	res, err := ctl.Run(context.Background(), w, g, plan)
	if err != nil {
		t.Fatal(err)
	}
	return res, store
}

func TestRunMaterializesAllNodes(t *testing.T) {
	res, store := runPipeline(t, false)
	if len(res.Nodes) != 3 {
		t.Fatalf("node metrics = %d", len(res.Nodes))
	}
	for _, name := range []string{"mv_daily", "mv_top", "mv_count"} {
		tb, err := LoadTable(store, name)
		if err != nil {
			t.Fatalf("%s not materialized: %v", name, err)
		}
		if tb.NumRows() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	// Check content: mv_daily has 3 days with revenues 15, 10, 20.
	daily, _ := LoadTable(store, "mv_daily")
	if daily.NumRows() != 3 {
		t.Fatalf("mv_daily rows = %d", daily.NumRows())
	}
	count, _ := LoadTable(store, "mv_count")
	if count.Cols[0].Ints[0] != 3 {
		t.Fatalf("mv_count = %v", count.Row(0))
	}
}

func TestRunFlaggedServesChildrenFromMemory(t *testing.T) {
	res, _ := runPipeline(t, true)
	var daily, top, count *NodeMetrics
	for i := range res.Nodes {
		switch res.Nodes[i].Name {
		case "mv_daily":
			daily = &res.Nodes[i]
		case "mv_top":
			top = &res.Nodes[i]
		case "mv_count":
			count = &res.Nodes[i]
		}
	}
	if !daily.Flagged || daily.WriteTime != 0 {
		t.Fatalf("mv_daily metrics: %+v", daily)
	}
	if top.MemReads != 1 || top.DiskReads != 0 {
		t.Fatalf("mv_top reads: %+v", top)
	}
	if count.MemReads != 1 {
		t.Fatalf("mv_count reads: %+v", count)
	}
	if res.PeakMemory == 0 {
		t.Fatal("no memory usage recorded")
	}
}

func TestRunUnflaggedReadsFromDisk(t *testing.T) {
	res, _ := runPipeline(t, false)
	for _, n := range res.Nodes {
		if n.MemReads != 0 {
			t.Fatalf("%s read from memory without flagging", n.Name)
		}
	}
}

func TestFlaggedOutputsReleasedAfterRun(t *testing.T) {
	w, store := pipelineFixture(t)
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	order, _ := g.TopoSort()
	plan := core.NewPlan(order)
	plan.Flagged[0] = true
	plan.Flagged[1] = true // childless: released once materialized
	mem := memcat.New(1 << 20)
	ctl := &Controller{Store: store, Mem: mem}
	if _, err := ctl.Run(context.Background(), w, g, plan); err != nil {
		t.Fatal(err)
	}
	if names := mem.Names(); len(names) != 0 {
		t.Fatalf("memory catalog not drained: %v", names)
	}
	if mem.Used() != 0 {
		t.Fatalf("Used = %d after run", mem.Used())
	}
}

func TestOversizedFlaggedFallsBackToDisk(t *testing.T) {
	w, store := pipelineFixture(t)
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	order, _ := g.TopoSort()
	plan := core.NewPlan(order)
	plan.Flagged[0] = true
	ctl := &Controller{Store: store, Mem: memcat.New(1)} // absurdly small
	res, err := ctl.Run(context.Background(), w, g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.FallbackWrites != 1 {
		t.Fatalf("FallbackWrites = %d", res.FallbackWrites)
	}
	// Result must still be correct and materialized.
	if _, err := LoadTable(store, "mv_top"); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadPlans(t *testing.T) {
	w, store := pipelineFixture(t)
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	ctl := &Controller{Store: store, Mem: memcat.New(1 << 20)}
	short := &core.Plan{Order: []dag.NodeID{0}, Flagged: make([]bool, 3)}
	if _, err := ctl.Run(context.Background(), w, g, short); err == nil {
		t.Fatal("short plan accepted")
	}
	bad := &core.Plan{Order: []dag.NodeID{1, 0, 2}, Flagged: make([]bool, 3)}
	if _, err := ctl.Run(context.Background(), w, g, bad); err == nil {
		t.Fatal("non-topological plan accepted")
	}
}

func TestRunSurfacesSQLErrors(t *testing.T) {
	store := storage.NewMemStore()
	w := &Workload{Nodes: []NodeSpec{{Name: "bad", SQL: "SELECT nope FROM missing"}}}
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	ctl := &Controller{Store: store, Mem: memcat.New(1 << 20)}
	_, err = ctl.Run(context.Background(), w, g, core.NewPlan([]dag.NodeID{0}))
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err = %v", err)
	}
}

func TestFlaggedAndUnflaggedProduceIdenticalOutputs(t *testing.T) {
	stores := map[string]func(storage.Store) storage.Store{
		"mem": func(s storage.Store) storage.Store { return s },
		// Background materialization overlaps downstream reads only on a
		// store that takes time; the S/C plan must still write the same MVs.
		"throttled": func(s storage.Store) storage.Store {
			return &storage.Throttled{Inner: s, ReadBWBps: 1e6, WriteBWBps: 1e6, Latency: time.Millisecond}
		},
	}
	for storeName, wrap := range stores {
		_, storeA := runPipelineOn(t, false, wrap)
		_, storeB := runPipelineOn(t, true, wrap)
		for _, name := range []string{"mv_daily", "mv_top", "mv_count"} {
			a, err := storeA.Read(tableObject(name))
			if err != nil {
				t.Fatal(err)
			}
			b, err := storeB.Read(tableObject(name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s store: %s differs between flagged and unflagged runs", storeName, name)
			}
		}
	}
}
