package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/sched"
	"github.com/shortcircuit-db/sc/internal/table"
)

// The parallel differential suite: the partitioned (chunk-parallel) mode
// must be byte-identical to the serial walk for every operator, encoding
// and partition shape — including dict-overflow columns, all-RLE columns,
// empty tables, single-group tables and token budgets wider than the
// chunk count. Only the join's probe partitions; every other operator must
// ignore the lent tokens. The serial side is itself pinned to the row
// engine by the other differential suites, so transitively parallel == row
// engine.
// Run under -race in CI, this also pins the thread-safety claims.

// parallelCtx clones a kernels context with a fresh token budget and the
// chunk-parallel path on. It returns the scheduler so tests can assert
// every token and byte reservation came back.
func parallelCtx(vec *engine.Context, tokens int) (*engine.Context, *sched.Scheduler) {
	sc := sched.New(tokens, 0)
	par := *vec
	par.Sched = sc
	par.ParallelScan = true
	return &par, sc
}

// mustDrain asserts the scheduler pool is fully returned: no leaked
// tokens, commitments or byte reservations after a run.
func mustDrain(t *testing.T, seed int64, sc *sched.Scheduler) {
	t.Helper()
	st := sc.Stats()
	if st.Idle != st.Tokens || st.ReservedBytes != 0 || st.Committed != 0 {
		t.Fatalf("seed %d: scheduler leaked: %+v", seed, st)
	}
}

// mustSameStats asserts the partitioned walk reproduced the serial
// counters exactly — every Stats field is a sum over chunks, so the fold
// over partitions must land on the same totals.
func mustSameStats(t *testing.T, seed int64, desc string, serial, par *Stats) {
	t.Helper()
	if *serial != *par {
		t.Fatalf("seed %d %s: stats diverged\nserial: %+v\nparallel: %+v", seed, desc, *serial, *par)
	}
}

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
		tokens := 2 + rng.Intn(7) // 2..8, regularly wider than the chunk count
		scan := func() *engine.Scan { return &engine.Scan{Name: "t", Sch: tbl.Schema} }
		rowCtx, vecCtx := ctxFor(t, "t", tbl, opts)
		parCtx, sc := parallelCtx(vecCtx, tokens)

		// Filters and projections over a scan keep the row engine: the
		// lowered plan under borrowed tokens must still match it.
		want, wantErr := (&engine.Filter{Input: scan(), Pred: pred}).Run(rowCtx)
		got, gotErr := Lower(&engine.Filter{Input: scan(), Pred: pred}, &Stats{}).Run(parCtx)
		mustEqual(t, int64(seed), fmt.Sprintf("parallel filter w=%d", tokens), want, got, wantErr, gotErr)
		mustDrain(t, int64(seed), sc)

		// Columns-only projection with the same predicate under it.
		var exprs []engine.Expr
		var names []string
		for k := 0; k < 1+rng.Intn(3); k++ {
			idx := rng.Intn(len(tbl.Cols))
			exprs = append(exprs, &engine.ColRef{Idx: idx, Name: tbl.Schema.Cols[idx].Name})
			names = append(names, fmt.Sprintf("o%d", k))
		}
		buildProj := func() engine.Node {
			pr, err := engine.NewProject(&engine.Filter{Input: scan(), Pred: pred}, exprs, names)
			if err != nil {
				t.Fatalf("seed %d: NewProject: %v", seed, err)
			}
			return pr
		}
		want, wantErr = buildProj().Run(rowCtx)
		got, gotErr = Lower(buildProj(), &Stats{}).Run(parCtx)
		mustEqual(t, int64(seed), "parallel project", want, got, wantErr, gotErr)
		mustDrain(t, int64(seed), sc)
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
		loweredSrc, err := build()
		if err != nil {
			t.Fatalf("seed %d: second build failed: %v", seed, err)
		}
		_, vecCtx := ctxFor(t, "t", tbl, encOptions(rng))
		tokens := 2 + rng.Intn(7)
		parCtx, sc := parallelCtx(vecCtx, tokens)

		stS, stP := &Stats{}, &Stats{}
		want, wantErr := Lower(plain, stS).Run(vecCtx)
		got, gotErr := Lower(loweredSrc, stP).Run(parCtx)
		mustEqual(t, int64(seed), "parallel aggregate", want, got, wantErr, gotErr)
		if wantErr == nil {
			mustSameStats(t, int64(seed), "aggregate", stS, stP)
		}
		mustDrain(t, int64(seed), sc)
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
		opts := map[string]encoding.Options{"L": encOptions(rng), "R": encOptions(rng)}
		_, vecCtx := joinCtxFor(t, map[string]*table.Table{"L": left, "R": right}, opts)
		tokens := 2 + rng.Intn(7)
		parCtx, sc := parallelCtx(vecCtx, tokens)

		stS, stP := &Stats{}, &Stats{}
		want, wantErr := Lower(build(), stS).Run(vecCtx)
		got, gotErr := Lower(build(), stP).Run(parCtx)
		mustEqual(t, int64(seed), "parallel join Run", want, got, wantErr, gotErr)
		if wantErr == nil {
			mustSameStats(t, int64(seed), "join", stS, stP)
		}
		mustDrain(t, int64(seed), sc)

		// The chunked-output path: the probe pre-pass partitions, the
		// builder assembly stays serial, and the emitted chunks must decode
		// to the same bytes.
		stS, stP = &Stats{}, &Stats{}
		if join, ok := Lower(build(), stP).(*HashJoinScan); ok && wantErr == nil {
			got2, gotErr2 := decodeChunked(t, join, parCtx)
			mustEqual(t, int64(seed), "parallel join RunChunked", want, got2, wantErr, gotErr2)
			mustDrain(t, int64(seed), sc)
			// The probe's row-group contexts outlive their partitions: what
			// the builder assembly reads through them must still be counted.
			if _, err := decodeChunked(t, Lower(build(), stS).(*HashJoinScan), vecCtx); err != nil {
				t.Fatalf("seed %d: serial RunChunked: %v", seed, err)
			}
			mustSameStats(t, int64(seed), "join RunChunked", stS, stP)
		}
	}
}

// TestDifferentialParallelChunkedOutput pins chunked output composed across
// operators under borrowed tokens: in a two-level join tree the inner join
// emits chunks that the outer join probes, each probe partitions while
// builder assembly stays serial, and the emitted chunk stream must decode
// byte-identically to the serial walk.
func TestDifferentialParallelChunkedOutput(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	chunked, borrowed := 0, int64(0)
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
		opts := map[string]encoding.Options{"A": encOptions(rng), "B": encOptions(rng), "C": encOptions(rng)}
		_, vecCtx := joinCtxFor(t, map[string]*table.Table{"A": a, "B": b, "C": c}, opts)
		tokens := 2 + rng.Intn(7)
		parCtx, sc := parallelCtx(vecCtx, tokens)

		stS, stP := &Stats{}, &Stats{}
		serialOp, ok := Lower(build(), stS).(*HashJoinScan)
		if !ok {
			continue
		}
		parOp := Lower(build(), stP).(*HashJoinScan)
		want, wantErr := decodeChunked(t, serialOp, vecCtx)
		got, gotErr := decodeChunked(t, parOp, parCtx)
		mustEqual(t, int64(seed), "parallel chunked join tree", want, got, wantErr, gotErr)
		mustDrain(t, int64(seed), sc)
		if wantErr == nil {
			mustSameStats(t, int64(seed), "chunked join tree", stS, stP)
			chunked++
			borrowed += sc.Stats().Borrowed
		}
	}
	if chunked == 0 || borrowed == 0 {
		t.Fatalf("%d chunked join trees borrowed %d tokens: the partitioned probe went untested", chunked, borrowed)
	}
}

// TestParallelDirectedShapes walks the corner cases the randomized suite
// might under-sample, one directed table per shape: all-RLE columns, a
// dictionary-overflow column, an empty table, a single row group, and a
// token budget far wider than the chunk count. Each runs a self-join whose
// probe side carries a filter, so the partitioned probe evaluates the
// side predicate on every shape.
func TestParallelDirectedShapes(t *testing.T) {
	cases := []struct {
		name   string
		rows   int
		shape  colShape
		chunk  int
		tokens int
	}{
		{"all-rle", 256, shapeConst, 8, 4},
		{"dict-overflow", 300, shapeHighCard, 16, 4},
		{"empty-table", 0, shapeLowCard, 8, 4},
		{"one-row", 1, shapeLowCard, 8, 4},
		{"single-group", 200, shapeLowCard, 0, 4}, // one chunk: plan must stay serial
		{"workers-beyond-chunks", 64, shapeLowCard, 32, 16},
		{"tiny-chunks", 100, shapeRuns, 1, 8},
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
			rowCtx, vecCtx := ctxFor(t, "t", tbl, encoding.Options{ChunkRows: tc.chunk})
			parCtx, sc := parallelCtx(vecCtx, tc.tokens)

			want, wantErr := build().Run(rowCtx)
			stS, stP := &Stats{}, &Stats{}
			serial, serialErr := Lower(build(), stS).Run(vecCtx)
			mustEqual(t, 7, tc.name+" serial", want, serial, wantErr, serialErr)
			got, gotErr := Lower(build(), stP).Run(parCtx)
			mustEqual(t, 7, tc.name, want, got, wantErr, gotErr)
			if stS.Lowered != 2 || stS.Fallbacks != 0 {
				t.Fatalf("side-filtered join did not run on the kernel: %+v", *stS)
			}
			mustSameStats(t, 7, tc.name, stS, stP)
			mustDrain(t, 7, sc)
		})
	}
}
