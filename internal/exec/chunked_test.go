package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
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

// chunkedWorkload is a two-level join tree (a join probing another join's
// output) whose only dependent aggregates the joined MV — every consumer
// can run in code space.
func chunkedWorkload() *Workload {
	return &Workload{Nodes: []NodeSpec{
		{Name: "j2", SQL: `
			SELECT s.item AS item, s.amount AS amount, c.cat AS cat, r.fee AS fee
			FROM sales s
			JOIN cats c ON s.item = c.item
			JOIN rates r ON s.item = r.item`},
		{Name: "by_cat", SQL: `SELECT cat, COUNT(*) AS n FROM j2 GROUP BY cat`},
	}}
}

func chunkedBaseTables(t *testing.T) map[string]*table.Table {
	t.Helper()
	sales := table.New(table.NewSchema(
		table.Column{Name: "item", Type: table.Str},
		table.Column{Name: "amount", Type: table.Int},
	))
	for i := 0; i < 400; i++ {
		sales.Cols[0].Strs = append(sales.Cols[0].Strs, []string{"pen", "ink", "pad", "jar"}[i%4])
		sales.Cols[1].Ints = append(sales.Cols[1].Ints, int64(i%9))
	}
	cats := table.New(table.NewSchema(
		table.Column{Name: "item", Type: table.Str},
		table.Column{Name: "cat", Type: table.Str},
	))
	rates := table.New(table.NewSchema(
		table.Column{Name: "item", Type: table.Str},
		table.Column{Name: "fee", Type: table.Int},
	))
	for i, item := range []string{"pen", "ink", "pad"} { // "jar" dropped by the joins
		cats.Cols[0].Strs = append(cats.Cols[0].Strs, item)
		cats.Cols[1].Strs = append(cats.Cols[1].Strs, "c"+item)
		rates.Cols[0].Strs = append(rates.Cols[0].Strs, item)
		rates.Cols[1].Ints = append(rates.Cols[1].Ints, int64(i))
	}
	return map[string]*table.Table{"sales": sales, "cats": cats, "rates": rates}
}

func runChunkedWorkload(t *testing.T, ctl *Controller) *RunResult {
	t.Helper()
	w := chunkedWorkload()
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	plan := core.NewPlan(topo)
	for i := range plan.Flagged {
		plan.Flagged[i] = true
	}
	res, err := ctl.Run(context.Background(), w, g, plan)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestChunkedIntermediatesEndToEnd: the two-level join tree runs entirely
// in code space — no kernel fallbacks, chunked output stored directly, no
// whole-table decode of a resident entry — and the MVs match the row
// engine's.
func TestChunkedIntermediatesEndToEnd(t *testing.T) {
	enc := encoding.Options{ChunkRows: 64}
	newStore := func() storage.Store {
		st := storage.NewMemStore()
		for name, tb := range chunkedBaseTables(t) {
			if err := SaveTableChunked(st, name, tb, enc); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}

	rowStore := newStore()
	runChunkedWorkload(t, &Controller{Store: rowStore, Mem: memcat.New(1 << 30)})

	vecStore := newStore()
	log := &eventLog{}
	ctl := &Controller{Store: vecStore, Mem: memcat.New(1 << 30), Obs: log, Encoding: &enc}
	res := runChunkedWorkload(t, ctl)

	var j2 *NodeMetrics
	for i := range res.Nodes {
		if res.Nodes[i].Name == "j2" {
			j2 = &res.Nodes[i]
		}
	}
	if j2 == nil {
		t.Fatal("no metrics for j2")
	}
	if j2.Lowered == 0 || j2.Fallbacks != 0 {
		t.Fatalf("join-over-join did not stay in code space: %+v", j2)
	}
	if j2.ChunksPassed == 0 {
		t.Fatalf("j2 emitted no code-space output chunks: %+v", j2)
	}
	if j2.JoinProbeRows == 0 {
		t.Fatalf("j2 never probed in code space: %+v", j2)
	}
	// Every consumer of the base tables and the flagged intermediates reads
	// chunks, so nothing is ever decoded whole.
	if decs := log.byKind(obs.DecodeDone); len(decs) != 0 {
		t.Fatalf("chunk-only consumers paid %d whole-table decodes: %+v", len(decs), decs)
	}

	g, _, _ := chunkedWorkload().BuildGraph()
	for i := 0; i < g.Len(); i++ {
		name := g.Name(dag.NodeID(i))
		want, err := LoadTable(rowStore, name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := LoadTable(vecStore, name)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := colfmt.Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := colfmt.Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Fatalf("MV %q differs between row-engine and chunked runs", name)
		}
	}
}

// TestChunkedInputParsedOnce: planning reads a chunked object's schema from
// its DecodeCompressed parse, which stays on the node's handle, and the
// kernels' chunk view is that same parse, not a second walk of the bytes.
func TestChunkedInputParsedOnce(t *testing.T) {
	sales := chunkedBaseTables(t)["sales"]
	store := storage.NewMemStore()
	if err := SaveTableChunked(store, "sales", sales, encoding.Options{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	in := newInputs(&Controller{Store: store}, "j2")
	sch, err := in.TableSchema("sales")
	if err != nil || !sch.Equal(sales.Schema) {
		t.Fatalf("TableSchema = %v, %v", sch, err)
	}
	parsed := in.objs["sales"].ct
	if parsed == nil {
		t.Fatal("the schema read left no parse on the handle")
	}
	if ct := in.chunks("sales"); ct != parsed {
		t.Fatalf("chunks parsed the object again: %p, want %p", ct, parsed)
	}
	if in.reads != 1 {
		t.Fatalf("%d storage reads, want 1", in.reads)
	}
}

// TestCorruptChunkedInputFailsNode: a chunked base table with a corrupt
// payload fails the node that scans it, on the row path and the kernels'
// alike, with an error that wraps colfmt.ErrCorrupt and names the object.
func TestCorruptChunkedInputFailsNode(t *testing.T) {
	for _, enc := range []*encoding.Options{nil, {ChunkRows: 64}} {
		store := storage.NewMemStore()
		for name, tb := range chunkedBaseTables(t) {
			if err := SaveTableChunked(store, name, tb, encoding.Options{ChunkRows: 64}); err != nil {
				t.Fatal(err)
			}
		}
		data, err := store.Read(tableObject("sales"))
		if err != nil {
			t.Fatal(err)
		}
		data = append([]byte(nil), data...)
		data[len(data)-5] ^= 0xff // last payload byte, just before its checksum
		if err := store.Write(tableObject("sales"), data); err != nil {
			t.Fatal(err)
		}
		w := chunkedWorkload()
		g, _, err := w.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		topo, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		ctl := &Controller{Store: store, Mem: memcat.New(1 << 30), Encoding: enc}
		_, err = ctl.Run(context.Background(), w, g, core.NewPlan(topo))
		if !errors.Is(err, colfmt.ErrCorrupt) || !strings.Contains(fmt.Sprint(err), `"sales"`) {
			t.Errorf("encoding %v: run error %v, want colfmt.ErrCorrupt naming \"sales\"", enc != nil, err)
		}
	}
}
