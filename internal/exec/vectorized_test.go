package exec

import (
	"bytes"
	"context"
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

// vecWorkload exercises every lowering rule, and the shapes that keep the
// row engine beside them: a filter over a base scan, aggregates (with and
// without a filter beneath), a join with pushed-down side filters, and
// downstream nodes reading flagged compressed MVs.
func vecWorkload() *Workload {
	return &Workload{Nodes: []NodeSpec{
		{Name: "hot", SQL: `SELECT * FROM events WHERE kind = 'click' AND amount > 2`},
		{Name: "by_kind", SQL: `SELECT kind, COUNT(*) AS n, SUM(amount) AS total FROM events GROUP BY kind`},
		{Name: "hot_stats", SQL: `SELECT kind, SUM(amount * qty) AS weighted FROM hot GROUP BY kind`},
		{Name: "joined", SQL: `
			SELECT h.kind AS kind, h.amount AS amount, d.label AS label
			FROM hot h JOIN dims d ON h.kind = d.kind
			WHERE d.label <> 'skip' AND h.qty >= 1`},
		{Name: "top", SQL: `SELECT kind, amount FROM joined ORDER BY amount DESC LIMIT 5`},
	}}
}

func vecBaseTables(t *testing.T) map[string]*table.Table {
	t.Helper()
	events := table.New(table.NewSchema(
		table.Column{Name: "kind", Type: table.Str},
		table.Column{Name: "amount", Type: table.Float},
		table.Column{Name: "qty", Type: table.Int},
	))
	kinds := []string{"click", "view", "click", "click", "buy"}
	for i := 0; i < 500; i++ {
		if err := events.AppendRow(
			table.StrValue(kinds[i%len(kinds)]),
			table.FloatValue(float64(i%17)/2),
			table.IntValue(int64(i/100)), // long runs
		); err != nil {
			t.Fatal(err)
		}
	}
	dims := table.New(table.NewSchema(
		table.Column{Name: "kind", Type: table.Str},
		table.Column{Name: "label", Type: table.Str},
	))
	for _, row := range [][2]string{{"click", "c"}, {"view", "skip"}, {"buy", "b"}} {
		if err := dims.AppendRow(table.StrValue(row[0]), table.StrValue(row[1])); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]*table.Table{"events": events, "dims": dims}
}

// runVecWorkload runs vecWorkload over chunked base tables, on the kernels
// when encoded and on the row engine otherwise.
func runVecWorkload(t *testing.T, encoded bool, o obs.Observer) (map[string][]byte, *RunResult) {
	t.Helper()
	st := storage.NewMemStore()
	enc := encoding.Options{ChunkRows: 64}
	for name, tb := range vecBaseTables(t) {
		if err := SaveTableChunked(st, name, tb, enc); err != nil {
			t.Fatal(err)
		}
	}
	w := vecWorkload()
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
		plan.Flagged[i] = true // keep everything resident: reads hit compressed entries
	}
	ctl := &Controller{Store: st, Mem: memcat.New(1 << 30), Obs: o}
	if encoded {
		ctl.Encoding = &enc
	}
	res, err := ctl.Run(context.Background(), w, g, plan)
	if err != nil {
		t.Fatal(err)
	}
	return storedMVs(t, st, g), res
}

// storedMVs reads every node's stored output.
func storedMVs(t *testing.T, st storage.Store, g *dag.Graph) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for i := 0; i < g.Len(); i++ {
		name := g.Name(dag.NodeID(i))
		data, err := st.Read(tableObject(name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// canonical re-encodes a stored MV in the v1 layout, so runs that chose
// different chunk boundaries or codecs (the chunked-output pipeline does)
// still compare byte-for-byte on content.
func canonical(t *testing.T, data []byte) []byte {
	t.Helper()
	tb, err := colfmt.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := colfmt.Encode(tb)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVectorizedEndToEnd runs the same workload through the row engine and
// the kernels and requires byte-identical materialized outputs (canonical
// form: the chunked pipeline may pick different chunk layouts, but the
// decoded tables must match byte for byte).
func TestVectorizedEndToEnd(t *testing.T) {
	want, _ := runVecWorkload(t, false, nil)
	var kernelEvents int
	got, res := runVecWorkload(t, true, obs.Func(func(e obs.Event) {
		if e.Kind == obs.KernelDone {
			kernelEvents++
		}
	}))
	for name, data := range want {
		if !bytes.Equal(canonical(t, data), canonical(t, got[name])) {
			t.Fatalf("MV %q differs between row-engine and kernel runs", name)
		}
	}
	if kernelEvents == 0 {
		t.Fatal("no KernelDone events: the encoded run never engaged the kernels")
	}
	var lowered, skipped int64
	for _, n := range res.Nodes {
		lowered += n.Lowered
		skipped += n.ChunksSkipped
	}
	if lowered == 0 {
		t.Fatal("no plan operators were lowered")
	}
	t.Logf("lowered=%d chunksSkipped=%d", lowered, skipped)
}

// TestKernelsFallBackOnV1Inputs checks the kernels over v1 base tables:
// an encoded run lowers, falls back to the row engine wherever an input is
// not chunked, still matches the row run, and reports its fallbacks in the
// metrics.
func TestKernelsFallBackOnV1Inputs(t *testing.T) {
	var fallbacks int64
	run := func(enc *encoding.Options) map[string][]byte {
		st := storage.NewMemStore()
		for name, tb := range vecBaseTables(t) {
			if err := SaveTable(st, name, tb); err != nil {
				t.Fatal(err)
			}
		}
		w := vecWorkload()
		g, _, err := w.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		topo, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		ctl := &Controller{Store: st, Mem: memcat.New(0), Encoding: enc}
		res, err := ctl.Run(context.Background(), w, g, core.NewPlan(topo))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range res.Nodes {
			fallbacks += n.Fallbacks
		}
		return storedMVs(t, st, g)
	}
	want := run(nil)
	if fallbacks != 0 {
		t.Fatalf("the row run reported %d kernel fallbacks", fallbacks)
	}
	got := run(&encoding.Options{})
	for name, data := range want {
		if !bytes.Equal(canonical(t, data), canonical(t, got[name])) {
			t.Fatalf("MV %q differs between the row run and the kernels' fallback", name)
		}
	}
	if fallbacks == 0 {
		t.Fatal("kernels over v1 storage reported no fallbacks")
	}
}
