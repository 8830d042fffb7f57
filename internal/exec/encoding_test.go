package exec

import (
	"context"
	"sync"
	"testing"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
)

// wideFixture stores a compressible sales table (serial keys, categories,
// decimal prices) and a two-level workload over it.
func wideFixture(t *testing.T, rows int) (*Workload, storage.Store) {
	t.Helper()
	store := storage.NewMemStore()
	sales := table.New(table.NewSchema(
		table.Column{Name: "day", Type: table.Int},
		table.Column{Name: "item", Type: table.Str},
		table.Column{Name: "amount", Type: table.Float},
	))
	cats := []string{"ale", "bock", "stout", "porter"}
	for i := 0; i < rows; i++ {
		if err := sales.AppendRow(
			table.IntValue(int64(i/16+1)),
			table.StrValue(cats[i%len(cats)]),
			table.FloatValue(float64(i%977+100)/100),
		); err != nil {
			t.Fatal(err)
		}
	}
	if err := SaveTable(store, "sales", sales); err != nil {
		t.Fatal(err)
	}
	w := &Workload{Nodes: []NodeSpec{
		{Name: "mv_daily", SQL: `SELECT day, item, SUM(amount) AS revenue FROM sales GROUP BY day, item`},
		{Name: "mv_top", SQL: `SELECT day, revenue FROM mv_daily WHERE revenue >= 10 ORDER BY revenue DESC`},
		{Name: "mv_count", SQL: `SELECT COUNT(*) AS groups FROM mv_daily`},
	}}
	return w, store
}

// runWide executes the fixture with node 0 flagged, with or without the
// encoding subsystem.
func runWide(t *testing.T, enc *encoding.Options, o obs.Observer) (*RunResult, storage.Store) {
	t.Helper()
	w, store := wideFixture(t, 4096)
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
	ctl := &Controller{Store: store, Mem: memcat.New(1 << 22), Encoding: enc, Obs: o}
	res, err := ctl.Run(context.Background(), w, g, plan)
	if err != nil {
		t.Fatal(err)
	}
	return res, store
}

// TestEncodingProducesIdenticalMVs: with and without encoding, every
// materialized view decodes to the same rows — the format change is
// invisible to readers.
func TestEncodingProducesIdenticalMVs(t *testing.T) {
	_, plain := runWide(t, nil, nil)
	_, comp := runWide(t, &encoding.Options{}, nil)
	for _, mv := range []string{"mv_daily", "mv_top", "mv_count"} {
		a, err := LoadTable(plain, mv)
		if err != nil {
			t.Fatalf("load %s (v1): %v", mv, err)
		}
		b, err := LoadTable(comp, mv)
		if err != nil {
			t.Fatalf("load %s (v2): %v", mv, err)
		}
		if a.NumRows() != b.NumRows() || !a.Schema.Equal(b.Schema) {
			t.Fatalf("%s: shape differs between v1 and v2 runs", mv)
		}
		for i := 0; i < a.NumRows(); i++ {
			ra, rb := a.Row(i), b.Row(i)
			for c := range ra {
				if ra[c] != rb[c] {
					t.Fatalf("%s row %d col %d: %v vs %v", mv, i, c, ra[c], rb[c])
				}
			}
		}
	}
}

// TestEncodingShrinksWritesAndCatalog: v2 objects on storage and the
// Memory Catalog peak must both be smaller than the uncompressed run's.
func TestEncodingShrinksWritesAndCatalog(t *testing.T) {
	resPlain, plain := runWide(t, nil, nil)
	resComp, comp := runWide(t, &encoding.Options{}, nil)

	szPlain, err := TableSize(plain, "mv_daily")
	if err != nil {
		t.Fatal(err)
	}
	szComp, err := TableSize(comp, "mv_daily")
	if err != nil {
		t.Fatal(err)
	}
	if szComp >= szPlain {
		t.Fatalf("v2 object (%d B) not smaller than v1 (%d B)", szComp, szPlain)
	}
	if resComp.PeakMemory >= resPlain.PeakMemory {
		t.Fatalf("compressed catalog peak %d not below plain %d", resComp.PeakMemory, resPlain.PeakMemory)
	}
	var daily *NodeMetrics
	for i := range resComp.Nodes {
		if resComp.Nodes[i].Name == "mv_daily" {
			daily = &resComp.Nodes[i]
		}
	}
	if daily == nil || !daily.Flagged {
		t.Fatal("mv_daily was not flagged")
	}
	if daily.CatalogBytes <= 0 || daily.CatalogBytes >= daily.OutputBytes {
		t.Fatalf("CatalogBytes = %d, OutputBytes = %d: want compressed accounting", daily.CatalogBytes, daily.OutputBytes)
	}
}

// eventLog is a concurrency-safe observer for tests.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) OnEvent(e obs.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) byKind(k obs.Kind) []obs.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []obs.Event
	for _, e := range l.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// TestEncodingEmitsObsEvents: every node reports an EncodeDone with a
// sane ratio, and flagged reads report DecodeDone.
func TestEncodingEmitsObsEvents(t *testing.T) {
	log := &eventLog{}
	runWide(t, &encoding.Options{}, log)
	encs := log.byKind(obs.EncodeDone)
	if len(encs) != 3 {
		t.Fatalf("EncodeDone events = %d, want 3", len(encs))
	}
	for _, e := range encs {
		if e.Encoded <= 0 || e.Ratio <= 0 {
			t.Fatalf("EncodeDone %s: Encoded=%d Ratio=%f", e.Node, e.Encoded, e.Ratio)
		}
	}
	decs := log.byKind(obs.DecodeDone)
	if len(decs) == 0 {
		t.Fatal("no DecodeDone events for flagged reads")
	}
	for _, e := range decs {
		if e.Node != "mv_daily" {
			t.Fatalf("DecodeDone for %s, only mv_daily is flagged", e.Node)
		}
		if e.Encoded <= 0 || e.Ratio < 1 {
			t.Fatalf("DecodeDone: Encoded=%d Ratio=%f", e.Encoded, e.Ratio)
		}
	}
}

// TestEncodingOversizedFallsBack: the fallback path still works when the
// compressed output exceeds the budget.
func TestEncodingOversizedFallsBack(t *testing.T) {
	w, store := wideFixture(t, 4096)
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
	ctl := &Controller{Store: store, Mem: memcat.New(64), Encoding: &encoding.Options{}}
	res, err := ctl.Run(context.Background(), w, g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.FallbackWrites != 1 {
		t.Fatalf("FallbackWrites = %d, want 1", res.FallbackWrites)
	}
	if _, err := LoadTable(store, "mv_daily"); err != nil {
		t.Fatalf("fallback write unreadable: %v", err)
	}
}

// TestEncodingConcurrentRunIdentical: the worker pool path with encoding
// produces the same MVs as the serial path.
func TestEncodingConcurrentRunIdentical(t *testing.T) {
	w, store := wideFixture(t, 4096)
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
	ctl := &Controller{Store: store, Mem: memcat.New(1 << 22), Encoding: &encoding.Options{}, Concurrency: 4}
	if _, err := ctl.Run(context.Background(), w, g, plan); err != nil {
		t.Fatal(err)
	}
	_, serialStore := runWide(t, &encoding.Options{}, nil)
	for _, mv := range []string{"mv_daily", "mv_top", "mv_count"} {
		a, err := serialStore.Read(tableObject(mv))
		if err != nil {
			t.Fatal(err)
		}
		b, err := store.Read(tableObject(mv))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s: concurrent encoded bytes differ from serial", mv)
		}
	}
}

// TestRowReadersEachDecodeResidentEntry: mv_daily is flagged, held
// compressed, and read by two children: mv_top on the row engine (a filter
// over a scan does not lower) and mv_count on the aggregate kernel. The
// catalog keeps nothing but the entry, so the row reader decodes it in full
// and says so — one DecodeDone event with the whole decoded size — while
// the kernel reads its chunks without a decode. The catalog never holds
// more than its budget, and the MVs equal an unflagged run's byte for byte.
func TestRowReadersEachDecodeResidentEntry(t *testing.T) {
	log := &eventLog{}
	res, store := runWide(t, &encoding.Options{}, log)
	daily, err := LoadTable(store, "mv_daily")
	if err != nil {
		t.Fatal(err)
	}
	decs := log.byKind(obs.DecodeDone)
	if len(decs) != 1 {
		t.Fatalf("DecodeDone events = %d, want 1 (the row-path reader's)", len(decs))
	}
	for _, e := range decs {
		if e.Node != "mv_daily" {
			t.Fatalf("DecodeDone for %q, want mv_daily", e.Node)
		}
		if e.Bytes != daily.ByteSize() || e.Encoded <= 0 || e.Bytes <= e.Encoded {
			t.Fatalf("DecodeDone Bytes=%d Encoded=%d, want the full %d decoded bytes", e.Bytes, e.Encoded, daily.ByteSize())
		}
	}
	for _, n := range res.Nodes {
		if n.Name == "mv_count" && (n.Lowered == 0 || n.Fallbacks != 0) {
			t.Fatalf("mv_count: lowered %d operators with %d fallbacks, want the kernel", n.Lowered, n.Fallbacks)
		}
	}
	if res.PeakMemory <= 0 || res.PeakMemory > 1<<22 {
		t.Fatalf("PeakMemory = %d, want within the %d-byte budget", res.PeakMemory, 1<<22)
	}

	w, unflagged := wideFixture(t, 4096)
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	ctl := &Controller{Store: unflagged, Encoding: &encoding.Options{}}
	if _, err := ctl.Run(context.Background(), w, g, core.NewPlan(order)); err != nil {
		t.Fatal(err)
	}
	for _, mv := range []string{"mv_daily", "mv_top", "mv_count"} {
		a, err := unflagged.Read(tableObject(mv))
		if err != nil {
			t.Fatal(err)
		}
		b, err := store.Read(tableObject(mv))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s: flagged run stored different bytes than the unflagged run", mv)
		}
	}
}
