package sc_test

import (
	"bytes"
	"context"
	"testing"

	sc "github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/table"
)

// chunkedMVs is a join-over-join pipeline with an aggregate on top: the
// shape the compressed intermediate pipeline keeps in code space end to
// end.
func chunkedMVs() []sc.MV {
	return []sc.MV{
		{Name: "joined2", SQL: `
			SELECT s.item AS item, s.amount AS amount, c.cat AS cat, r.fee AS fee
			FROM sales s
			JOIN cats c ON s.item = c.item
			JOIN rates r ON s.item = r.item`},
		{Name: "cat_counts", SQL: `SELECT cat, COUNT(*) AS n FROM joined2 GROUP BY cat`},
	}
}

func chunkedStore(t *testing.T) sc.Store {
	t.Helper()
	st := sc.NewMemStore()
	sales := table.New(table.NewSchema(
		table.Column{Name: "item", Type: table.Str},
		table.Column{Name: "amount", Type: table.Int},
	))
	for i := 0; i < 300; i++ {
		sales.Cols[0].Strs = append(sales.Cols[0].Strs, []string{"pen", "ink", "pad"}[i%3])
		sales.Cols[1].Ints = append(sales.Cols[1].Ints, int64(i%7))
	}
	cats := table.New(table.NewSchema(
		table.Column{Name: "item", Type: table.Str},
		table.Column{Name: "cat", Type: table.Str},
	))
	rates := table.New(table.NewSchema(
		table.Column{Name: "item", Type: table.Str},
		table.Column{Name: "fee", Type: table.Int},
	))
	for i, item := range []string{"pen", "ink"} {
		cats.Cols[0].Strs = append(cats.Cols[0].Strs, item)
		cats.Cols[1].Strs = append(cats.Cols[1].Strs, "c-"+item)
		rates.Cols[0].Strs = append(rates.Cols[0].Strs, item)
		rates.Cols[1].Ints = append(rates.Cols[1].Ints, int64(i+1))
	}
	for name, tb := range map[string]*table.Table{"sales": sales, "cats": cats, "rates": rates} {
		if err := sc.SaveTableChunked(st, name, tb, sc.EncodingOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// mustSameMV requires the named MV to hold the same non-empty rows in both
// stores, value for value.
func mustSameMV(t *testing.T, name string, wantStore, gotStore sc.Store) {
	t.Helper()
	want, err := sc.LoadTable(wantStore, name)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.LoadTable(gotStore, name)
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() == 0 || want.NumRows() != got.NumRows() || !want.Schema.Equal(got.Schema) {
		t.Fatalf("MV %q: shape differs (%d vs %d rows)", name, want.NumRows(), got.NumRows())
	}
	for r := 0; r < want.NumRows(); r++ {
		for c := range want.Cols {
			if want.Cols[c].Value(r) != got.Cols[c].Value(r) {
				t.Fatalf("MV %q row %d col %d differs", name, r, c)
			}
		}
	}
}

// TestSessionDictCacheAcrossRuns: an encoded session must (a) materialize
// the same MVs as the row engine and (b) report dictionary reuse on the
// second refresh.
func TestSessionDictCacheAcrossRuns(t *testing.T) {
	ctx := context.Background()

	rowStore := chunkedStore(t)
	rowRef, err := sc.New(chunkedMVs(), rowStore)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rowRef.Run(ctx); err != nil {
		t.Fatal(err)
	}

	st := chunkedStore(t)
	ref, err := sc.New(chunkedMVs(), st, sc.WithEncoding(sc.EncodingOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	reusedAt := func(res *sc.RunResult) int64 {
		var total int64
		for _, n := range res.Nodes {
			total += n.DictReused
		}
		return total
	}
	res1, err := ref.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res1.Nodes {
		if n.Fallbacks != 0 {
			t.Fatalf("node %s fell back to the row engine: %+v", n.Name, n)
		}
	}
	res2, err := ref.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if reusedAt(res2) == 0 {
		t.Fatal("second Run reports no dictionary reuse")
	}

	// Same MVs as the row engine, value for value.
	for _, mv := range chunkedMVs() {
		mustSameMV(t, mv.Name, rowStore, st)
	}
}

// TestEncodingAloneLowersEveryNode: WithEncoding is the one switch of the
// compressed path. Over chunked base tables every node of the join-over-join
// pipeline runs on a kernel without falling back, and the MVs equal the
// plain row session's, value for value.
func TestEncodingAloneLowersEveryNode(t *testing.T) {
	ctx := context.Background()
	rowStore := chunkedStore(t)
	rowRef, err := sc.New(chunkedMVs(), rowStore)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rowRef.Run(ctx); err != nil {
		t.Fatal(err)
	}

	st := chunkedStore(t)
	ref, err := sc.New(chunkedMVs(), st, sc.WithEncoding(sc.EncodingOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Nodes {
		if n.Lowered == 0 || n.Fallbacks != 0 {
			t.Fatalf("node %s: lowered %d operators with %d fallbacks, want every node on a kernel", n.Name, n.Lowered, n.Fallbacks)
		}
	}
	for _, mv := range chunkedMVs() {
		mustSameMV(t, mv.Name, rowStore, st)
	}
}

// TestFilterAndProjectRootsUnderEncoding: a Filter root and a Project root
// have no chunk-emitting form — under WithEncoding they run their kernel,
// materialize rows and encode them like every other non-join root — and a
// join over their outputs still stays in code space. The decoded MVs must
// equal the plain row path's, and a flagged session must store the same
// bytes as one that keeps nothing in the Memory Catalog.
func TestFilterAndProjectRootsUnderEncoding(t *testing.T) {
	ctx := context.Background()
	mvs := []sc.MV{
		{Name: "big_sales", SQL: `SELECT * FROM sales WHERE amount >= 3`},
		{Name: "sale_items", SQL: `SELECT item FROM sales WHERE amount < 2`},
		{Name: "item_cats", SQL: `SELECT cat, item FROM cats`},
		{Name: "big_by_cat", SQL: `
			SELECT b.item AS item, b.amount AS amount, c.cat AS cat
			FROM big_sales b JOIN item_cats c ON b.item = c.item`},
	}
	run := func(opts ...sc.Option) (sc.Store, *sc.RunResult) {
		t.Helper()
		st := chunkedStore(t)
		ref, err := sc.New(mvs, st, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ref.Optimize(ctx); err != nil {
			t.Fatal(err)
		}
		res, err := ref.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st, res
	}
	compressed := []sc.Option{sc.WithEncoding(sc.EncodingOptions{})}
	rowStore, _ := run()
	flagStore, flagRes := run(append(compressed, sc.WithMemory(64<<20))...)
	naiveStore, naiveRes := run(append(compressed, sc.WithMemory(0))...)

	flagged := 0
	for _, res := range []*sc.RunResult{flagRes, naiveRes} {
		var lowered int64
		for _, n := range res.Nodes {
			if n.Fallbacks != 0 {
				t.Fatalf("node %s fell back to the row engine: %+v", n.Name, n)
			}
			if n.Flagged {
				flagged++
			}
			lowered += n.Lowered
		}
		if lowered == 0 {
			t.Fatal("no operator was lowered onto a kernel")
		}
	}
	if flagged == 0 {
		t.Fatal("the session with a budget flagged nothing; the catalog path went untested")
	}

	for _, mv := range mvs {
		mustSameMV(t, mv.Name, rowStore, flagStore)
		a, err := flagStore.Read(mv.Name + ".sct")
		if err != nil {
			t.Fatal(err)
		}
		b, err := naiveStore.Read(mv.Name + ".sct")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("MV %q: flagged session stored %d bytes, naive %d, not identical", mv.Name, len(a), len(b))
		}
	}
}
