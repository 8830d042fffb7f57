package kernels

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// The parallel differential suite. A node runs on its one token and walks
// its row groups serially, so the parallelism left is k nodes at once — and
// concurrent nodes read the same inputs (a Memory Catalog resident, a
// storage object's chunk view), each with its own chunk builders. Each
// test runs w copies of one plan at the same time over one shared context,
// every copy lowered on its own as a node's plan would be, and checks each
// copy against a serial run: the same bytes and the same counters. Run
// under -race in CI, this pins that the kernels treat shared inputs as
// read-only.

// result is one copy's output.
type result struct {
	tb  *table.Table
	err error
}

// concurrently runs w copies of run at once, each counting into its own
// Stats, and waits for all of them. run is called off the test goroutine,
// so it must report failures through its result, not through t.
func concurrently(w int, run func(i int, st *Stats) result) ([]result, []Stats) {
	res, sts := make([]result, w), make([]Stats, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i] = run(i, &sts[i])
		}(i)
	}
	wg.Wait()
	return res, sts
}

// mustMatchAll asserts every concurrent copy produced want, and — when
// wantSt is non-nil — exactly the serial counters.
func mustMatchAll(t *testing.T, seed int64, desc string, want *table.Table, wantErr error, wantSt *Stats, res []result, sts []Stats) {
	t.Helper()
	for i, r := range res {
		mustEqual(t, seed, fmt.Sprintf("%s copy %d/%d", desc, i, len(res)), want, r.tb, wantErr, r.err)
		if wantSt != nil && wantErr == nil && sts[i] != *wantSt {
			t.Fatalf("seed %d %s copy %d: stats diverged\nserial: %+v\nconcurrent: %+v", seed, desc, i, *wantSt, sts[i])
		}
	}
}

// chunkedOut runs op in chunked-output mode like decodeChunked, but reports
// an invalid chunk stream as an error, so it can run off the test goroutine.
func chunkedOut(op *HashJoinScan, ctx *engine.Context) result {
	ct, tb, err := op.RunChunked(ctx)
	if err != nil || ct == nil {
		return result{tb, err}
	}
	if err := ct.Validate(); err != nil {
		return result{err: fmt.Errorf("chunked output invalid: %w", err)}
	}
	if ct.RowGroups() == nil {
		return result{err: errors.New("chunked output has misaligned row groups")}
	}
	tb, err = ct.Table()
	return result{tb, err}
}

// width draws how many copies run at once: 2..4.
func width(rng *rand.Rand) int { return 2 + rng.Intn(3) }

func TestDifferentialParallelFilterProject(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for seed := 20000; seed < 20000+iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		tbl := genTable(rng, rowCount(rng))
		pred := genPred(rng, tbl, 2)
		opts := encOptions(rng)
		w := width(rng)
		scan := func() *engine.Scan { return &engine.Scan{Name: "t", Sch: tbl.Schema} }
		rowCtx, vecCtx := ctxFor(t, "t", tbl, opts)

		// Filters and projections over a scan keep the row engine: concurrent
		// lowered plans over one shared input must still match it.
		want, wantErr := (&engine.Filter{Input: scan(), Pred: pred}).Run(rowCtx)
		res, sts := concurrently(w, func(_ int, st *Stats) result {
			tb, err := Lower(&engine.Filter{Input: scan(), Pred: pred}, st).Run(vecCtx)
			return result{tb, err}
		})
		mustMatchAll(t, int64(seed), "concurrent filter", want, wantErr, nil, res, sts)

		// Columns-only projection with the same predicate under it.
		var exprs []engine.Expr
		var names []string
		for k := 0; k < 1+rng.Intn(3); k++ {
			idx := rng.Intn(len(tbl.Cols))
			exprs = append(exprs, &engine.ColRef{Idx: idx, Name: tbl.Schema.Cols[idx].Name})
			names = append(names, fmt.Sprintf("o%d", k))
		}
		buildProj := func() (engine.Node, error) {
			return engine.NewProject(&engine.Filter{Input: scan(), Pred: pred}, exprs, names)
		}
		pr, err := buildProj()
		if err != nil {
			t.Fatalf("seed %d: NewProject: %v", seed, err)
		}
		want, wantErr = pr.Run(rowCtx)
		res, sts = concurrently(w, func(_ int, st *Stats) result {
			pr, err := buildProj()
			if err != nil {
				return result{err: err}
			}
			tb, err := Lower(pr, st).Run(vecCtx)
			return result{tb, err}
		})
		mustMatchAll(t, int64(seed), "concurrent project", want, wantErr, nil, res, sts)
	}
}

func TestDifferentialParallelAggregate(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for seed := 21000; seed < 21000+iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		tbl := genTable(rng, rowCount(rng))
		build := func() (engine.Node, error) {
			var in engine.Node = &engine.Scan{Name: "t", Sch: tbl.Schema}
			if rng := rand.New(rand.NewSource(int64(seed))); rng.Intn(2) == 0 {
				in = &engine.Filter{Input: in, Pred: genPred(rng, tbl, 1)}
			}
			return genAgg(rand.New(rand.NewSource(int64(seed)+7)), tbl, in)
		}
		plain, err := build()
		if err != nil {
			continue
		}
		_, vecCtx := ctxFor(t, "t", tbl, encOptions(rng))
		w := width(rng)

		stS := &Stats{}
		want, wantErr := Lower(plain, stS).Run(vecCtx)
		res, sts := concurrently(w, func(_ int, st *Stats) result {
			agg, err := build()
			if err != nil {
				return result{err: err}
			}
			tb, err := Lower(agg, st).Run(vecCtx)
			return result{tb, err}
		})
		mustMatchAll(t, int64(seed), "concurrent aggregate", want, wantErr, stS, res, sts)
	}
}

func TestDifferentialParallelJoin(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for seed := 22000; seed < 22000+iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		nL, nR := rowCount(rng), rowCount(rng)
		left, right := genTable(rng, nL), genTable(rng, nR)
		typ := table.Int
		if rng.Intn(2) == 0 {
			typ = table.Str
		}
		lk := withKey(rng, left, "lk", typ, nL)
		rk := withKey(rng, right, "rk", typ, nR)
		build := func() engine.Node {
			return &engine.HashJoin{
				Left:      &engine.Scan{Name: "L", Sch: left.Schema},
				Right:     &engine.Scan{Name: "R", Sch: right.Schema},
				LeftKeys:  []int{lk},
				RightKeys: []int{rk},
			}
		}
		opts := map[string]encChoice{"L": encOptions(rng), "R": encOptions(rng)}
		_, vecCtx := joinCtxFor(t, map[string]*table.Table{"L": left, "R": right}, opts)
		w := width(rng)

		stS := &Stats{}
		want, wantErr := Lower(build(), stS).Run(vecCtx)
		res, sts := concurrently(w, func(_ int, st *Stats) result {
			tb, err := Lower(build(), st).Run(vecCtx)
			return result{tb, err}
		})
		mustMatchAll(t, int64(seed), "concurrent join Run", want, wantErr, stS, res, sts)

		// The chunked-output path: each copy assembles its own chunks from
		// the shared inputs, and they must decode to the same bytes.
		stS = &Stats{}
		if join, ok := Lower(build(), stS).(*HashJoinScan); ok && wantErr == nil {
			want, wantErr := decodeChunked(t, join, vecCtx)
			res, sts := concurrently(w, func(_ int, st *Stats) result {
				return chunkedOut(Lower(build(), st).(*HashJoinScan), vecCtx)
			})
			mustMatchAll(t, int64(seed), "concurrent join RunChunked", want, wantErr, stS, res, sts)
		}
	}
}

// TestDifferentialParallelChunkedOutput pins chunked output composed across
// operators with concurrent nodes over shared inputs: in a two-level join
// tree the inner join emits chunks that the outer join probes, every copy
// lowers as its own node with its own builders, and each emitted chunk
// stream must decode byte-identically to a serial run.
func TestDifferentialParallelChunkedOutput(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	chunked := 0
	for seed := 23000; seed < 23000+iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		// Constant keys on all three tables join every row with every row:
		// small tables keep that cube affordable.
		nA, nB, nC := rowCount(rng)%64, rowCount(rng)%64, rowCount(rng)%64
		a, b, c := genTable(rng, nA), genTable(rng, nB), genTable(rng, nC)
		typ := table.Int
		if rng.Intn(2) == 0 {
			typ = table.Str
		}
		ka := withKey(rng, a, "ka", typ, nA)
		kb := withKey(rng, b, "kb", typ, nB)
		kc := withKey(rng, c, "kc", typ, nC)
		build := func() engine.Node {
			return &engine.HashJoin{
				Left: &engine.HashJoin{
					Left:      &engine.Scan{Name: "A", Sch: a.Schema},
					Right:     &engine.Scan{Name: "B", Sch: b.Schema},
					LeftKeys:  []int{ka},
					RightKeys: []int{kb},
				},
				Right:     &engine.Scan{Name: "C", Sch: c.Schema},
				LeftKeys:  []int{ka},
				RightKeys: []int{kc},
			}
		}
		opts := map[string]encChoice{"A": encOptions(rng), "B": encOptions(rng), "C": encOptions(rng)}
		_, vecCtx := joinCtxFor(t, map[string]*table.Table{"A": a, "B": b, "C": c}, opts)
		w := width(rng)

		stS := &Stats{}
		serialOp, ok := Lower(build(), stS).(*HashJoinScan)
		if !ok {
			continue
		}
		want, wantErr := decodeChunked(t, serialOp, vecCtx)
		res, sts := concurrently(w, func(_ int, st *Stats) result {
			return chunkedOut(Lower(build(), st).(*HashJoinScan), vecCtx)
		})
		mustMatchAll(t, int64(seed), "concurrent chunked join tree", want, wantErr, stS, res, sts)
		if wantErr == nil {
			chunked++
		}
	}
	if chunked == 0 {
		t.Fatal("no join tree emitted chunks: the concurrent chunked path went untested")
	}
}

// TestParallelDirectedShapes walks the corner cases the randomized suites
// might under-sample, one directed table per shape: all-RLE columns (an
// older store's; no writer picks RLE now), a dictionary-overflow column, an empty table, one row, a single row group,
// more concurrent copies than row groups, and one-row chunks. Each runs a
// self-join whose probe side carries a filter, so the walk evaluates the
// side predicate on every shape; the serial kernel and every concurrent
// copy must match the row engine.
func TestParallelDirectedShapes(t *testing.T) {
	cases := []struct {
		name  string
		rows  int
		shape colShape
		chunk int
		width int
		rle   int // encChoice.rleEvery
	}{
		{"all-rle", 256, shapeConst, 8, 4, 1},
		{"dict-overflow", 300, shapeHighCard, 16, 4, 0},
		{"empty-table", 0, shapeLowCard, 8, 4, 0},
		{"one-row", 1, shapeLowCard, 8, 4, 0},
		{"single-group", 200, shapeLowCard, 0, 4, 0},
		{"workers-beyond-chunks", 64, shapeLowCard, 32, 16, 0},
		{"tiny-chunks", 100, shapeRuns, 1, 8, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var sch table.Schema
			sch.Cols = []table.Column{{Name: "a", Type: table.Int}, {Name: "b", Type: table.Str}}
			tbl := &table.Table{Schema: sch, Cols: []*table.Vector{
				genVector(rng, table.Int, tc.shape, tc.rows),
				genVector(rng, table.Str, tc.shape, tc.rows),
			}}
			pred := &engine.Bin{Op: engine.OpGe, L: &engine.ColRef{Idx: 0, Name: "a"}, R: &engine.Lit{V: table.IntValue(3)}}
			build := func() engine.Node {
				return &engine.HashJoin{
					Left:     &engine.Filter{Input: &engine.Scan{Name: "t", Sch: tbl.Schema}, Pred: pred},
					Right:    &engine.Scan{Name: "t", Sch: tbl.Schema},
					LeftKeys: []int{1}, RightKeys: []int{1},
				}
			}
			rowCtx, vecCtx := ctxFor(t, "t", tbl, encChoice{opts: encoding.Options{ChunkRows: tc.chunk}, rleEvery: tc.rle})

			want, wantErr := build().Run(rowCtx)
			stS := &Stats{}
			serial, serialErr := Lower(build(), stS).Run(vecCtx)
			mustEqual(t, 7, tc.name+" serial", want, serial, wantErr, serialErr)
			if stS.Lowered != 2 || stS.Fallbacks != 0 {
				t.Fatalf("side-filtered join did not run on the kernel: %+v", *stS)
			}
			res, sts := concurrently(tc.width, func(_ int, st *Stats) result {
				tb, err := Lower(build(), st).Run(vecCtx)
				return result{tb, err}
			})
			mustMatchAll(t, 7, tc.name, want, wantErr, stS, res, sts)
		})
	}
}
