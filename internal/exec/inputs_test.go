package exec

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/shortcircuit-db/sc/internal/colfmt"
	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
)

// newInputs is a node's input handles outside a run.
func newInputs(c *Controller, node string) *nodeInputs {
	return &nodeInputs{c: c, node: node, decoded: new(atomic.Int64), objs: make(map[string]*input), scans: make(map[string]int)}
}

// inputTable is a small table with an INT key, a low-cardinality string and
// a float.
func inputTable(t *testing.T, rows int) *table.Table {
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

// residentForms returns one entry of each form holding tb.
func residentForms(t *testing.T, tb *table.Table) map[string]memcat.Entry {
	t.Helper()
	data, err := colfmt.Encode(tb)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := encoding.FromTable(tb, encoding.Options{ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]memcat.Entry{
		memcat.FormRows:       memcat.Plain(tb),
		memcat.FormSerialized: memcat.SerializedEntry{Data: data, RawBytes: tb.ByteSize()},
		memcat.FormCompressed: ct,
	}
}

// TestRowReadsDecodeOncePerNodeChunkReadsNever: the catalog keeps entries
// and nothing derived from them. A chunk-form read hands out the entry
// itself and decodes nothing; a node's first row read decodes the entry in
// full and says so, its later ones reuse those rows, and the next node
// decodes again; none of it moves the accounted bytes. The handle holds the
// entry as it was put, whose size is the one the catalog accounted.
func TestRowReadsDecodeOncePerNodeChunkReadsNever(t *testing.T) {
	mem := memcat.New(1 << 20)
	ct, err := encoding.FromTable(inputTable(t, 1000), encoding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.PutEntry("mv", ct); err != nil {
		t.Fatal(err)
	}
	log := &eventLog{}
	ctl := &Controller{Store: storage.NewMemStore(), Mem: mem, Obs: log}

	in := newInputs(ctl, "chunks")
	for i := 0; i < 3; i++ {
		if got := in.chunks("mv"); got != ct {
			t.Fatalf("chunk read %d = %p, want the entry %p", i, got, ct)
		}
	}
	if o := in.objs["mv"]; o.entry != memcat.Entry(ct) || o.entry.SizeBytes() != ct.SizeBytes() || o.tbl != nil {
		t.Fatalf("handle %+v: want the entry itself, undecoded", o)
	}
	hits := log.byKind(obs.CacheHit)
	if in.memReads != 3 || len(hits) != 3 || hits[0].Bytes != ct.RawBytes || len(log.byKind(obs.DecodeDone)) != 0 {
		t.Fatalf("chunk reads: %d memory reads, hits %+v, %d decodes", in.memReads, hits, len(log.byKind(obs.DecodeDone)))
	}

	for node := 0; node < 2; node++ {
		log.events = nil
		in := newInputs(ctl, "rows")
		in.scans["mv"] = 3
		for i := 0; i < 3; i++ {
			tb, err := in.table("mv")
			if err != nil || tb.NumRows() != 1000 {
				t.Fatalf("node %d row read %d: %v", node, i, err)
			}
		}
		decodes, hits := log.byKind(obs.DecodeDone), log.byKind(obs.CacheHit)
		if len(decodes) != 1 || decodes[0].Bytes != ct.RawBytes || decodes[0].Encoded != ct.SizeBytes() {
			t.Fatalf("node %d: decodes %+v, want one of %d bytes from %d", node, decodes, ct.RawBytes, ct.SizeBytes())
		}
		if len(hits) != 2 || in.memReads != 3 || in.reads != 0 {
			t.Fatalf("node %d: %d hits, %d memory reads, %d storage reads", node, len(hits), in.memReads, in.reads)
		}
	}
	if mem.Used() != ct.SizeBytes() || mem.Peak() != ct.SizeBytes() {
		t.Fatalf("reads moved the accounting: used %d peak %d, entry %d", mem.Used(), mem.Peak(), ct.SizeBytes())
	}
}

// TestChunksDeclinePlainAndMissing: a resident entry that holds no chunks
// (rows or serialized bytes) gives no chunk view and no storage read,
// sending a kernel to the row path; an absent name without a stored object
// gives none either, and the fallback surfaces the error.
func TestChunksDeclinePlainAndMissing(t *testing.T) {
	tb := inputTable(t, 10)
	mem := memcat.New(1 << 20)
	for form, e := range residentForms(t, tb) {
		if form != memcat.FormCompressed {
			if err := mem.PutEntry(form, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	reads := &countingStore{Store: storage.NewMemStore()}
	in := newInputs(&Controller{Store: reads, Mem: mem}, "out")
	for _, name := range []string{memcat.FormRows, memcat.FormSerialized, "absent"} {
		if ct := in.chunks(name); ct != nil {
			t.Errorf("%s served as chunks", name)
		}
	}
	if in.memReads != 0 || in.reads != 0 || reads.n != 1 {
		t.Fatalf("%d memory reads, %d storage reads, %d attempted, want 0, 0, 1 (absent)", in.memReads, in.reads, reads.n)
	}
	if _, err := in.table("absent"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("row read of an absent table: %v", err)
	}
}

// TestSchemaDecodesNoTable: planning reads every form's schema off the
// handle without a whole-table decode or a storage read. The serialized
// entry's payload is corrupted past its column headers, so any decode of it
// fails while the header still reads.
func TestSchemaDecodesNoTable(t *testing.T) {
	tb := inputTable(t, 1000)
	forms := residentForms(t, tb)
	data := forms[memcat.FormSerialized].(memcat.SerializedEntry).Data
	data[len(data)-5] ^= 0xff // last payload byte, just before its checksum
	if _, err := colfmt.Decode(data); err == nil {
		t.Fatal("corrupted payload still decodes")
	}
	mem := memcat.New(1 << 30)
	log := &eventLog{}
	reads := &countingStore{Store: storage.NewMemStore()}
	in := newInputs(&Controller{Store: reads, Mem: mem, Obs: log}, "out")
	for form, e := range forms {
		if err := mem.PutEntry(form, e); err != nil {
			t.Fatal(err)
		}
		if sch, err := in.TableSchema(form); err != nil || !sch.Equal(tb.Schema) {
			t.Errorf("%s: TableSchema = %v, %v", form, sch, err)
		}
		if memcat.FormOf(e) != form {
			t.Errorf("%s: FormOf = %q", form, memcat.FormOf(e))
		}
	}
	if len(log.events) != 0 || reads.n != 0 {
		t.Fatalf("schema reads emitted %v and read storage %d times", log.events, reads.n)
	}
	if _, err := in.TableSchema("absent"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("schema of an absent table: %v", err)
	}
	if _, err := in.table(memcat.FormSerialized); err == nil {
		t.Error("a corrupt serialized entry with no stored object served rows")
	}
}

// badEntry decodes to an error, standing in for a corrupt entry.
type badEntry struct{}

func (badEntry) SizeBytes() int64             { return 8 }
func (badEntry) Table() (*table.Table, error) { return nil, errors.New("boom") }

// TestDecodeFailureCountsAsMiss: a resident entry that does not decode is a
// miss — the node reads the table's stored object instead, counts no
// memory read and reports no catalog decode — whether the entry fails on its
// schema (badEntry) or only on its rows (a serialized entry corrupted past
// its headers).
func TestDecodeFailureCountsAsMiss(t *testing.T) {
	tb := inputTable(t, 300)
	data, err := colfmt.Encode(tb)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-5] ^= 0xff
	for name, e := range map[string]memcat.Entry{
		"bad":     badEntry{},
		"corrupt": memcat.SerializedEntry{Data: corrupt, RawBytes: tb.ByteSize()},
	} {
		t.Run(name, func(t *testing.T) {
			mem := memcat.New(1 << 20)
			if err := mem.PutEntry("t", e); err != nil {
				t.Fatal(err)
			}
			store := storage.NewMemStore()
			if err := SaveTable(store, "t", tb); err != nil {
				t.Fatal(err)
			}
			log := &eventLog{}
			res := runOne(t, &Controller{Store: store, Mem: mem, Obs: log}, "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp")
			if n := res.Nodes[0]; n.DiskReads != 1 || n.MemReads != 0 || n.Rows != 3 {
				t.Fatalf("DiskReads = %d, MemReads = %d, Rows = %d, want 1, 0, 3", n.DiskReads, n.MemReads, n.Rows)
			}
			if d, h := log.byKind(obs.DecodeDone), log.byKind(obs.CacheHit); len(d)+len(h) != 0 {
				t.Fatalf("a miss reported %d decodes and %d hits", len(d), len(h))
			}
		})
	}
}

// runOne runs a one-node workload "out".
func runOne(t *testing.T, ctl *Controller, sql string) *RunResult {
	t.Helper()
	w := &Workload{Nodes: []NodeSpec{{Name: "out", SQL: sql}}}
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctl.Run(context.Background(), w, g, core.NewPlan([]dag.NodeID{0}))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSelfJoinDecodesResidentOnce: a node that scans one resident input
// twice decodes a serialized or compressed entry once and reads plain rows
// for free, at one token and at two, and stores the MV a run with no
// catalog stores, byte for byte.
func TestSelfJoinDecodesResidentOnce(t *testing.T) {
	const selfJoin = "SELECT a.k AS k, b.v AS v, b.grp AS grp FROM t a JOIN t b ON a.k = b.k"
	tb := inputTable(t, 300)
	ref := storage.NewMemStore()
	if err := SaveTable(ref, "t", tb); err != nil {
		t.Fatal(err)
	}
	runOne(t, &Controller{Store: ref}, selfJoin)
	want, err := ref.Read(tableObject("out"))
	if err != nil {
		t.Fatal(err)
	}
	for form, e := range residentForms(t, tb) {
		for _, tokens := range []int{1, 2} {
			mem := memcat.New(1 << 20)
			if err := mem.PutEntry("t", e); err != nil {
				t.Fatal(err)
			}
			store, log := storage.NewMemStore(), &eventLog{}
			res := runOne(t, &Controller{Store: store, Mem: mem, Obs: log, Concurrency: tokens}, selfJoin)
			decodes := 1
			if form == memcat.FormRows {
				decodes = 0
			}
			if n := res.Nodes[0]; n.DiskReads != 0 || n.MemReads != 2 || len(log.byKind(obs.DecodeDone)) != decodes {
				t.Errorf("%s, %d tokens: %d storage reads, %d memory reads, %d decodes, want 0, 2, %d",
					form, tokens, n.DiskReads, n.MemReads, len(log.byKind(obs.DecodeDone)), decodes)
			}
			if got, err := store.Read(tableObject("out")); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s, %d tokens: MV differs from the run with no catalog (%v)", form, tokens, err)
			}
		}
	}
}
