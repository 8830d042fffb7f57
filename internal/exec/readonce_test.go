package exec_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

// countingStore counts Read calls per object.
type countingStore struct {
	storage.Store
	mu    sync.Mutex
	reads map[string]int
}

func newCountingStore() *countingStore {
	return &countingStore{Store: storage.NewMemStore(), reads: make(map[string]int)}
}

func (c *countingStore) Read(name string) ([]byte, error) {
	c.mu.Lock()
	c.reads[name]++
	c.mu.Unlock()
	return c.Store.Read(name)
}

// take returns the reads since the last call, per object and in total.
func (c *countingStore) take() (map[string]int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	got, total := c.reads, 0
	for _, n := range got {
		total += n
	}
	c.reads = make(map[string]int)
	return got, total
}

// eventCount counts events of one kind.
type eventCount struct {
	kind obs.Kind
	mu   sync.Mutex
	n    int
}

func (e *eventCount) OnEvent(ev obs.Event) {
	if ev.Kind == e.kind {
		e.mu.Lock()
		e.n++
		e.mu.Unlock()
	}
}

func tpcdsFixture(t *testing.T, st storage.Store) (*exec.Workload, *dag.Graph, []dag.NodeID) {
	t.Helper()
	ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Save(st, exec.SaveTable); err != nil {
		t.Fatal(err)
	}
	w := tpcds.RealWorkload()
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	return w, g, order
}

// TestOneReadPerNodeAndObject pins the refresh path's read count on the
// 12-MV pipeline: one Store.Read per (node, storage-resident input), the
// same on every run and at either concurrency. With nothing flagged that
// is 8 base-table scans + 11 MV inputs; with everything but ss_1999 in the
// Memory Catalog (the io-bound benchmark workload's plan) the 8 base scans
// plus ss_1999's two readers.
func TestOneReadPerNodeAndObject(t *testing.T) {
	st := newCountingStore()
	w, g, order := tpcdsFixture(t, st)
	st.take()
	for _, tc := range []struct {
		name    string
		flagged func(name string) bool
		want    int
	}{
		{"nothing flagged", func(string) bool { return false }, 19},
		{"all but ss_1999 flagged", func(n string) bool { return n != "ss_1999" }, 10},
	} {
		plan := core.NewPlan(order)
		for i, n := range w.Nodes {
			plan.Flagged[i] = tc.flagged(n.Name)
		}
		for _, workers := range []int{1, 2} {
			for run := 0; run < 20; run++ {
				ctl := &exec.Controller{Store: st, Mem: memcat.New(256 << 20), Concurrency: workers}
				res, err := ctl.Run(context.Background(), w, g, plan)
				if err != nil {
					t.Fatal(err)
				}
				per, total := st.take()
				if total != tc.want {
					t.Fatalf("%s, %d workers, run %d: %d reads, want %d: %v", tc.name, workers, run, total, tc.want, per)
				}
				disk := 0
				for _, n := range res.Nodes {
					disk += n.DiskReads
				}
				if disk != total {
					t.Fatalf("%s: nodes report %d disk reads, store saw %d", tc.name, disk, total)
				}
			}
		}
	}
}

// TestNodeTimeBreakdownCoversSpan checks that a node's attributed times —
// plan, read, compute, encode, blocking write — add up to its span on a
// store slow enough for reads to matter, so a fetch can no longer hide in
// planning.
func TestNodeTimeBreakdownCoversSpan(t *testing.T) {
	mem := storage.NewMemStore()
	w, g, order := tpcdsFixture(t, mem)
	_, base, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	st := &storage.Throttled{Inner: mem, ReadBWBps: 20e6, WriteBWBps: 20e6, Latency: time.Millisecond}
	var mu sync.Mutex
	span := make(map[string]time.Duration)
	ctl := &exec.Controller{Store: st, Obs: obs.Func(func(e obs.Event) {
		if e.Kind == obs.NodeDone {
			mu.Lock()
			span[e.Node] = e.Elapsed
			mu.Unlock()
			if e.Plan <= 0 {
				t.Errorf("%s: NodeDone carries no plan time", e.Node)
			}
		}
	})}
	res, err := ctl.Run(context.Background(), w, g, core.NewPlan(order))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Nodes {
		sum := n.PlanTime + n.ReadTime + n.ComputeTime + n.EncodeTime + n.WriteTime
		if sum > span[n.Name] || float64(sum) < 0.95*float64(span[n.Name]) {
			t.Errorf("%s: plan %v + read %v + compute %v + encode %v + write %v = %v of a %v span",
				n.Name, n.PlanTime, n.ReadTime, n.ComputeTime, n.EncodeTime, n.WriteTime, sum, span[n.Name])
		}
		// Every input is on storage here, base tables included, so the
		// modelled device time of all of them is a floor under ReadTime
		// wherever in the node the fetch happened.
		id := g.Lookup(n.Name)
		inputs := append([]string(nil), base[id]...)
		for _, par := range g.Parents(id) {
			inputs = append(inputs, g.Name(par))
		}
		floor := time.Duration(0)
		for _, in := range inputs {
			size, err := exec.TableSize(st, in)
			if err != nil {
				t.Fatal(err)
			}
			floor += st.Latency + time.Duration(float64(size)/st.ReadBWBps*float64(time.Second))
		}
		if n.DiskReads != len(inputs) || n.ReadTime < floor {
			t.Errorf("%s: %d reads of %d inputs, ReadTime %v under the device's %v", n.Name, n.DiskReads, len(inputs), n.ReadTime, floor)
		}
	}
}

func keyedTable(t *testing.T, rows int) *table.Table {
	t.Helper()
	tb := table.New(table.NewSchema(
		table.Column{Name: "k", Type: table.Int},
		table.Column{Name: "grp", Type: table.Str},
		table.Column{Name: "v", Type: table.Float},
	))
	for i := 0; i < rows; i++ {
		if err := tb.AppendRow(table.IntValue(int64(i)), table.StrValue([]string{"a", "b", "c"}[i%3]), table.FloatValue(float64(i)/2)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestOneReadPerInputOnEveryPath runs a single node over one base table
// through each way the Controller can consume it, on one token and on two.
func TestOneReadPerInputOnEveryPath(t *testing.T) {
	// An aggregate over the scan: the shape the kernels take from a chunked
	// input (a filter over a scan keeps the row engine).
	const aggSQL = "SELECT grp, SUM(v) AS v FROM t GROUP BY grp"
	opts := encoding.Options{ChunkRows: 64}
	for _, tc := range []struct {
		name     string
		chunked  bool // base table saved in the chunked format
		encoded  bool // the session runs WithEncoding: the kernels
		sql      string
		decodes  int  // whole-table decodes of a chunked file
		fallback bool // the kernels revert to the row engine
	}{
		{"row path, v1 file", false, false, aggSQL, 0, false},
		{"row path, chunked file", true, false, aggSQL, 1, false},
		{"kernels, chunked file", true, true, aggSQL, 0, false},
		{"kernels fall back on a v1 file", false, true, aggSQL, 0, true},
		{"self-join, v1 file", false, false, "SELECT a.k AS k, b.v AS v FROM t a JOIN t b ON a.k = b.k", 0, false},
		{"self-join, chunked file", true, false, "SELECT a.k AS k, b.v AS v FROM t a JOIN t b ON a.k = b.k", 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, tokens := range []int{1, 2} {
				st := newCountingStore()
				var err error
				if tc.chunked {
					err = exec.SaveTableChunked(st, "t", keyedTable(t, 300), opts)
				} else {
					err = exec.SaveTable(st, "t", keyedTable(t, 300))
				}
				if err != nil {
					t.Fatal(err)
				}
				w := &exec.Workload{Nodes: []exec.NodeSpec{{Name: "out", SQL: tc.sql}}}
				g, _, err := w.BuildGraph()
				if err != nil {
					t.Fatal(err)
				}
				decodes := &eventCount{kind: obs.DecodeDone}
				ctl := &exec.Controller{Store: st, Obs: decodes, Concurrency: tokens}
				if tc.encoded {
					ctl.Encoding = &opts
				}
				res, err := ctl.Run(context.Background(), w, g, core.NewPlan([]dag.NodeID{0}))
				if err != nil {
					t.Fatal(err)
				}
				if per, total := st.take(); total != 1 {
					t.Fatalf("%d tokens: %d reads, want 1: %v", tokens, total, per)
				}
				n := res.Nodes[0]
				if n.DiskReads != 1 || n.Rows == 0 {
					t.Fatalf("%d tokens: DiskReads = %d, Rows = %d", tokens, n.DiskReads, n.Rows)
				}
				if decodes.n != tc.decodes {
					t.Fatalf("%d tokens: %d whole-table decodes, want %d", tokens, decodes.n, tc.decodes)
				}
				if tc.encoded && (n.Lowered == 0 || n.Fallbacks > 0 != tc.fallback) {
					t.Fatalf("%d tokens: lowered %d ops, %d fallbacks, want fallback=%v", tokens, n.Lowered, n.Fallbacks, tc.fallback)
				}
			}
		})
	}
}

// TestCatalogResidentInputReadsNothing runs a single node whose input is
// resident in the Memory Catalog and nowhere on storage: schema, chunk view
// and rows all resolve from the catalog, whichever form the entry has.
func TestCatalogResidentInputReadsNothing(t *testing.T) {
	opts := encoding.Options{ChunkRows: 64}
	for _, tc := range []struct {
		name       string
		compressed bool // the catalog entry holds chunks
		encoded    bool // the session runs WithEncoding: the kernels
		decodes    int  // whole-entry decodes for a row-path reader
	}{
		{"plain entry, row path", false, false, 0},
		{"plain entry, kernels fall back to its rows", false, true, 0},
		{"compressed entry, row path", true, false, 1},
		{"compressed entry, kernels", true, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newCountingStore()
			mem := memcat.New(1 << 20)
			var entry memcat.Entry = memcat.Plain(keyedTable(t, 300))
			if tc.compressed {
				ct, err := encoding.FromTable(keyedTable(t, 300), opts)
				if err != nil {
					t.Fatal(err)
				}
				entry = ct
			}
			if err := mem.PutEntry("t", entry); err != nil {
				t.Fatal(err)
			}
			w := &exec.Workload{Nodes: []exec.NodeSpec{{Name: "out", SQL: "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp"}}}
			g, _, err := w.BuildGraph()
			if err != nil {
				t.Fatal(err)
			}
			decodes := &eventCount{kind: obs.DecodeDone}
			ctl := &exec.Controller{Store: st, Mem: mem, Obs: decodes}
			if tc.encoded {
				ctl.Encoding = &opts
			}
			res, err := ctl.Run(context.Background(), w, g, core.NewPlan([]dag.NodeID{0}))
			if err != nil {
				t.Fatal(err)
			}
			if per, total := st.take(); total != 0 {
				t.Fatalf("%d reads of a catalog-resident input: %v", total, per)
			}
			n := res.Nodes[0]
			if n.DiskReads != 0 || n.MemReads != 1 || n.Rows != 3 {
				t.Fatalf("DiskReads = %d, MemReads = %d, Rows = %d, want 0, 1, 3", n.DiskReads, n.MemReads, n.Rows)
			}
			if decodes.n != tc.decodes {
				t.Fatalf("%d whole-entry decodes, want %d", decodes.n, tc.decodes)
			}
			if tc.encoded && (n.Lowered == 0 || n.Fallbacks > 0 == tc.compressed) {
				t.Fatalf("lowered %d ops, %d fallbacks over a compressed=%v entry", n.Lowered, n.Fallbacks, tc.compressed)
			}
		})
	}
}

// TestMissingBaseTableError pins the error a node fails with when its base
// table is not on storage, on both engine paths.
func TestMissingBaseTableError(t *testing.T) {
	const want = `exec: node "bad": sql: table "missing": storage: object not found: missing.sct`
	w := &exec.Workload{Nodes: []exec.NodeSpec{{Name: "bad", SQL: "SELECT nope FROM missing"}}}
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []*encoding.Options{nil, {}} {
		ctl := &exec.Controller{Store: storage.NewMemStore(), Encoding: enc}
		_, err := ctl.Run(context.Background(), w, g, core.NewPlan([]dag.NodeID{0}))
		if err == nil || err.Error() != want {
			t.Fatalf("encoded=%v: err = %v, want %s", enc != nil, err, want)
		}
	}
}
