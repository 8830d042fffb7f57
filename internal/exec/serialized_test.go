package exec

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"github.com/shortcircuit-db/sc/internal/colfmt"
	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/sql"
	"github.com/shortcircuit-db/sc/internal/storage"
)

// TestSerializedFormServesChildrenWithinBudget: under a Memory Catalog that
// holds mv_daily's serialized bytes and not its rows, a plan that names the
// serialized form keeps it resident — no fallback write, both children served
// from memory at the price of one decode each, the catalog never above its
// capacity and empty afterwards — where the same plan as rows falls back to
// a blocking write and storage reads. Either way the MVs on storage are
// those of a run that flags nothing, byte for byte.
func TestSerializedFormServesChildrenWithinBudget(t *testing.T) {
	run := func(t *testing.T, capacity int64, flag bool, form core.Form) (*RunResult, storage.Store, []obs.Event, *memcat.Catalog) {
		t.Helper()
		w, store := wideFixture(t, 20000)
		g, _, err := w.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		order, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		plan := core.NewPlan(order)
		plan.Flagged[0] = flag
		if form != core.Rows {
			plan.Forms = make([]core.Form, len(order))
			plan.Forms[0] = form
		}
		var mu sync.Mutex
		var events []obs.Event
		mem := memcat.New(capacity)
		ctl := &Controller{Store: store, Mem: mem, Obs: obs.Func(func(e obs.Event) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		})}
		res, err := ctl.Run(context.Background(), w, g, plan)
		if err != nil {
			t.Fatal(err)
		}
		return res, store, events, mem
	}

	ref, refStore, _, _ := run(t, 0, false, core.Rows)
	rows, encoded := ref.Nodes[0].OutputBytes, ref.Nodes[0].EncodedSize
	if encoded*2 > rows {
		t.Fatalf("fixture does not shrink when serialized: %d bytes of rows, %d serialized", rows, encoded)
	}

	res, store, events, mem := run(t, encoded, true, core.Serialized)
	if res.FallbackWrites != 0 {
		t.Fatalf("FallbackWrites = %d", res.FallbackWrites)
	}
	if res.PeakMemory != encoded || mem.Used() != 0 || len(mem.Names()) != 0 {
		t.Fatalf("peak %d (want %d), %d bytes in %v left resident", res.PeakMemory, encoded, mem.Used(), mem.Names())
	}
	if n := res.Nodes[0]; !n.Flagged || n.CatalogBytes != encoded || n.WriteTime != 0 {
		t.Fatalf("mv_daily: %+v", n)
	}
	for _, n := range res.Nodes[1:] {
		if n.MemReads != 1 || n.DiskReads != 0 {
			t.Errorf("%s: %d memory reads, %d storage reads", n.Name, n.MemReads, n.DiskReads)
		}
	}
	decodes := 0
	for _, e := range events {
		switch {
		case e.Kind == obs.DecodeDone && e.Node == "mv_daily":
			decodes++
			if e.Bytes != rows || e.Encoded != encoded {
				t.Errorf("DecodeDone %d -> %d bytes, want %d -> %d", e.Encoded, e.Bytes, encoded, rows)
			}
		case e.Kind == obs.NodeDone && e.Node == "mv_daily":
			if e.Form != memcat.FormSerialized {
				t.Errorf("NodeDone form %q", e.Form)
			}
		case e.Kind == obs.CacheHit:
			t.Errorf("CacheHit on %s: a serialized resident is never read for free", e.Source)
		}
	}
	if decodes != 2 {
		t.Errorf("%d decodes of mv_daily, want one per child", decodes)
	}

	asRows, rowsStore, _, _ := run(t, encoded, true, core.Rows)
	if asRows.FallbackWrites != 1 || asRows.Nodes[1].DiskReads != 1 {
		t.Fatalf("as rows: %d fallbacks, %d storage reads by the first child", asRows.FallbackWrites, asRows.Nodes[1].DiskReads)
	}
	for _, name := range []string{"mv_daily", "mv_top", "mv_count"} {
		want, err := refStore.Read(tableObject(name))
		if err != nil {
			t.Fatal(err)
		}
		for what, st := range map[string]storage.Store{"serialized": store, "rows": rowsStore} {
			if got, err := st.Read(tableObject(name)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s resident: %s differs from the unflagged run (%v)", what, name, err)
			}
		}
	}
}

// TestSerializedFormSchemaFromHeader: a node planned against a serialized
// resident reads its schema off the entry's header. The entry's payload is
// corrupted past the column headers and storage has no such object, so a
// whole-table decode, or a fall-through to storage, would fail the plan.
func TestSerializedFormSchemaFromHeader(t *testing.T) {
	w, store := wideFixture(t, 20000)
	sales, err := LoadTable(store, "sales")
	if err != nil {
		t.Fatal(err)
	}
	data, err := colfmt.Encode(sales)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xff // last payload byte, just before its checksum
	if _, err := colfmt.Decode(data); err == nil {
		t.Fatal("corrupted payload still decodes")
	}
	mem := memcat.New(1 << 30)
	if err := mem.PutEntry("mv_daily", memcat.SerializedEntry{Data: data, RawBytes: sales.ByteSize()}); err != nil {
		t.Fatal(err)
	}
	reads := &countingStore{Store: store}
	in := newInputs(&Controller{Store: reads, Mem: mem}, "mv_count")
	stmt, err := sql.Parse(w.Nodes[2].SQL) // mv_count: COUNT(*) over mv_daily, whatever its columns
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sql.Plan(stmt, in); err != nil {
		t.Fatalf("planning a child of a serialized resident: %v", err)
	}
	if sch, err := in.TableSchema("mv_daily"); err != nil || !sch.Equal(sales.Schema) {
		t.Fatalf("schema %v, %v", sch, err)
	}
	if reads.n != 0 || in.reads != 0 {
		t.Fatalf("%d storage reads", reads.n)
	}
}

// countingStore counts Read calls.
type countingStore struct {
	storage.Store
	n int
}

func (s *countingStore) Read(name string) ([]byte, error) {
	s.n++
	return s.Store.Read(name)
}
