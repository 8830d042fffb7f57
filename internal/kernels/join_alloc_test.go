package kernels

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// allocJoinProbeRows and allocJoinBuildRows size the fixed synthetic join
// of TestJoinRunChunkedAllocations and BenchmarkHashJoinRunChunked: every
// probe row finds exactly one of the unique build keys.
const (
	allocJoinProbeRows = 100_000
	allocJoinBuildRows = 10_000
)

// maxAllocPerRawByte bounds the bytes a chunked-output join allocates per
// raw byte of its output on the synthetic join. Growing the builder's
// pending buffers and the pair slices by append, and copying every gathered
// vector into the builder, allocated 5.8 B per raw byte; allocating each
// output column once, at its final size, allocated 2.9; decoding each
// gathered chunk into the scan's one reused buffer, not a fresh vector,
// allocated 2.2; laying build-side columns out by build ordinal instead of
// bucketing the pairs by build group allocates 1.8 (2.3 under the race
// detector, whose sync.Pool drops pooled buffers at random).
const maxAllocPerRawByte = 2.5

// allocJoinSide is one side of the synthetic join: an INT key column and,
// beside it, one column per codec the join's output assembly treats
// differently — a dictionary STRING (remapped codes), a sorted INT (delta,
// gathered values) and a FLOAT (gathered values).
func allocJoinSide(prefix string, n int, key func(i int) int64) *table.Table {
	tb := table.New(table.NewSchema(
		table.Column{Name: prefix + "k", Type: table.Int},
		table.Column{Name: prefix + "s", Type: table.Str},
		table.Column{Name: prefix + "i", Type: table.Int},
		table.Column{Name: prefix + "f", Type: table.Float},
	))
	for i := 0; i < n; i++ {
		tb.Cols[0].Ints = append(tb.Cols[0].Ints, key(i))
		tb.Cols[1].Strs = append(tb.Cols[1].Strs, fmt.Sprintf("%s-cat-%d", prefix, i%50))
		tb.Cols[2].Ints = append(tb.Cols[2].Ints, int64(3*i))
		tb.Cols[3].Floats = append(tb.Cols[3].Floats, float64(i%977)/8)
	}
	return tb
}

// allocJoin lowers the synthetic join and returns it with a context that
// resolves both sides in chunked form.
func allocJoin(tb testing.TB) (*HashJoinScan, *engine.Context) {
	tb.Helper()
	tabs := map[string]*table.Table{
		"L": allocJoinSide("l", allocJoinProbeRows, func(i int) int64 { return int64(i*7919) % allocJoinBuildRows }),
		"R": allocJoinSide("r", allocJoinBuildRows, func(i int) int64 { return int64(i) }),
	}
	cts := make(map[string]*encoding.Compressed, len(tabs))
	for name, t := range tabs {
		ct, err := encoding.FromTable(t, encoding.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		for ci, want := range map[int]encoding.CodecID{1: encoding.Dict, 2: encoding.Delta} {
			for _, ch := range ct.Cols[ci] {
				if ch.Codec != want {
					tb.Fatalf("%s column %d stored as %s, want %s", name, ci, ch.Codec, want)
				}
			}
		}
		cts[name] = ct
	}
	ctx := &engine.Context{ResolveCompressed: func(n string) (*encoding.Compressed, error) { return cts[n], nil }}
	node := &engine.HashJoin{
		Left:      &engine.Scan{Name: "L", Sch: tabs["L"].Schema},
		Right:     &engine.Scan{Name: "R", Sch: tabs["R"].Schema},
		LeftKeys:  []int{0},
		RightKeys: []int{0},
	}
	j, ok := LowerEnv(node, &Stats{}, encoding.Options{}).(*HashJoinScan)
	if !ok {
		tb.Fatal("synthetic join did not lower onto the join kernel")
	}
	return j, ctx
}

// TestJoinRunChunkedAllocations pins how much a chunked-output join
// allocates per raw output byte on a fixed synthetic join: the best of
// three runs, measured as the growth of runtime.MemStats.TotalAlloc.
func TestJoinRunChunkedAllocations(t *testing.T) {
	j, ctx := allocJoin(t)
	best := -1.0
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ct, tbl, err := j.RunChunked(ctx)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if ct == nil || tbl != nil {
			t.Fatal("synthetic join fell back to the row engine")
		}
		if ct.NRows != allocJoinProbeRows {
			t.Fatalf("join emitted %d rows, want %d", ct.NRows, allocJoinProbeRows)
		}
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(ct.RawBytes)
		if best < 0 || ratio < best {
			best = ratio
		}
	}
	t.Logf("allocated %.3f B per raw output byte", best)
	if best > maxAllocPerRawByte {
		t.Fatalf("chunked join allocated %.3f B per raw output byte, bound %.1f", best, maxAllocPerRawByte)
	}
}

// BenchmarkHashJoinRunChunked runs the synthetic join in chunked-output
// mode: 100,000 output rows of 8 columns.
func BenchmarkHashJoinRunChunked(b *testing.B) {
	j, ctx := allocJoin(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := j.RunChunked(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// ss1999Join lowers the shape of the compressed workload's critical join:
// a large sales table (INT keys and payload, two decimal FLOAT columns)
// probing a small date dimension filtered to one of its two years, so
// about half the probe rows find their one build row, under a fused
// projection that keeps one build-side column.
func ss1999Join(tb testing.TB, probeRows int) (*HashJoinScan, *engine.Context) {
	tb.Helper()
	const nDates = 730
	rng := rand.New(rand.NewSource(1999))
	dates := table.New(table.NewSchema(
		table.Column{Name: "d_date_sk", Type: table.Int},
		table.Column{Name: "d_year", Type: table.Int},
		table.Column{Name: "d_moy", Type: table.Int},
	))
	for i := 0; i < nDates; i++ {
		dates.Cols[0].Ints = append(dates.Cols[0].Ints, int64(2450000+i))
		dates.Cols[1].Ints = append(dates.Cols[1].Ints, int64(1999+i/365))
		dates.Cols[2].Ints = append(dates.Cols[2].Ints, int64(i%365/31+1))
	}
	sales := table.New(table.NewSchema(
		table.Column{Name: "sold_date_sk", Type: table.Int},
		table.Column{Name: "item_sk", Type: table.Int},
		table.Column{Name: "customer_sk", Type: table.Int},
		table.Column{Name: "quantity", Type: table.Int},
		table.Column{Name: "sales_price", Type: table.Float},
		table.Column{Name: "net_profit", Type: table.Float},
	))
	for i := 0; i < probeRows; i++ {
		price := float64(rng.Intn(20000)+100) / 100
		qty := int64(rng.Intn(10) + 1)
		sales.Cols[0].Ints = append(sales.Cols[0].Ints, int64(2450000+rng.Intn(nDates)))
		sales.Cols[1].Ints = append(sales.Cols[1].Ints, int64(rng.Intn(2000)+1))
		sales.Cols[2].Ints = append(sales.Cols[2].Ints, int64(rng.Intn(4000)+1))
		sales.Cols[3].Ints = append(sales.Cols[3].Ints, qty)
		sales.Cols[4].Floats = append(sales.Cols[4].Floats, price)
		sales.Cols[5].Floats = append(sales.Cols[5].Floats, price*float64(qty)*0.3-float64(rng.Intn(500))/100)
	}
	cts := make(map[string]*encoding.Compressed, 2)
	for name, t := range map[string]*table.Table{"store_sales": sales, "date_dim": dates} {
		ct, err := encoding.FromTable(t, encoding.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		cts[name] = ct
	}
	ctx := &engine.Context{ResolveCompressed: func(n string) (*encoding.Compressed, error) { return cts[n], nil }}
	join := &engine.Filter{
		Input: &engine.HashJoin{
			Left:      &engine.Scan{Name: "store_sales", Sch: sales.Schema},
			Right:     &engine.Scan{Name: "date_dim", Sch: dates.Schema},
			LeftKeys:  []int{0},
			RightKeys: []int{0},
		},
		Pred: &engine.Bin{Op: engine.OpEq, L: &engine.ColRef{Idx: 7}, R: &engine.Lit{V: table.IntValue(1999)}},
	}
	var exprs []engine.Expr
	var names []string
	for _, c := range []int{1, 2, 8, 3, 4, 5} {
		exprs = append(exprs, &engine.ColRef{Idx: c})
		names = append(names, fmt.Sprintf("c%d", c))
	}
	node, err := engine.NewProject(join, exprs, names)
	if err != nil {
		tb.Fatal(err)
	}
	j, ok := LowerEnv(node, &Stats{}, encoding.Options{}).(*HashJoinScan)
	if !ok || j.Right.Pred == nil || j.Proj == nil {
		tb.Fatalf("ss_1999-shaped join did not lower to a filtered, projected join kernel: %v", node)
	}
	return j, ctx
}

// BenchmarkHashJoinSS1999 runs the ss_1999-shaped join in chunked-output
// mode: 200,000 probe rows against 365 selected unique build rows, about
// 100,000 output rows of 6 columns.
func BenchmarkHashJoinSS1999(b *testing.B) {
	j, ctx := ss1999Join(b, 200_000)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := j.RunChunked(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
