package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// withKey appends a typed join-key column to a generated table.
func withKey(rng *rand.Rand, tb *table.Table, name string, typ table.Type, n int) int {
	tb.Schema.Cols = append(tb.Schema.Cols, table.Column{Name: name, Type: typ})
	tb.Cols = append(tb.Cols, genVector(rng, typ, keyShapes[rng.Intn(len(keyShapes))], n))
	return len(tb.Cols) - 1
}

// decodeChunked runs op in chunked-output mode and materializes the result
// whichever way it came back.
func decodeChunked(t *testing.T, op *HashJoinScan, ctx *engine.Context) (*table.Table, error) {
	t.Helper()
	ct, tb, err := op.RunChunked(ctx)
	if err != nil {
		return nil, err
	}
	if ct == nil {
		return tb, nil
	}
	if err := ct.Validate(); err != nil {
		t.Fatalf("chunked output invalid: %v", err)
	}
	if ct.RowGroups() == nil {
		t.Fatal("chunked output has misaligned row groups")
	}
	return ct.Table()
}

// TestDifferentialJoinOverJoin: randomized two-level join trees —
// HashJoin(HashJoin(A, B), C), sometimes under a columns-only projection —
// must match the row engine byte for byte, both through the materializing
// Run and through RunChunked, and the outer join must consume the inner
// one as a chunked side (no row-engine fallback) whenever it lowered.
func TestDifferentialJoinOverJoin(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	innerSides, chunkedRuns := 0, 0
	for seed := 9000; seed < 9000+iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		nA, nB, nC := rowCount(rng), rowCount(rng), rowCount(rng)
		a, b, c := genTable(rng, nA), genTable(rng, nB), genTable(rng, nC)
		typ := table.Int
		if rng.Intn(2) == 0 {
			typ = table.Str
		}
		ka := withKey(rng, a, "ka", typ, nA)
		kb := withKey(rng, b, "kb", typ, nB)
		kc := withKey(rng, c, "kc", typ, nC)
		// Random choices are drawn once so every build() yields the same plan.
		project := rng.Intn(3) == 0
		joinedW := a.Schema.NumCols() + b.Schema.NumCols() + c.Schema.NumCols()
		var projIdx []int
		for k := 0; k < 1+rng.Intn(4); k++ {
			projIdx = append(projIdx, rng.Intn(joinedW))
		}

		build := func() engine.Node {
			inner := &engine.HashJoin{
				Left:      &engine.Scan{Name: "A", Sch: a.Schema},
				Right:     &engine.Scan{Name: "B", Sch: b.Schema},
				LeftKeys:  []int{ka},
				RightKeys: []int{kb},
			}
			outer := &engine.HashJoin{
				Left:      inner,
				Right:     &engine.Scan{Name: "C", Sch: c.Schema},
				LeftKeys:  []int{ka}, // A's key within the joined schema
				RightKeys: []int{kc},
			}
			if !project {
				return outer
			}
			joined := outer.Schema()
			var exprs []engine.Expr
			var names []string
			for k, idx := range projIdx {
				exprs = append(exprs, &engine.ColRef{Idx: idx, Name: joined.Cols[idx].Name})
				names = append(names, fmt.Sprintf("o%d", k))
			}
			pr, err := engine.NewProject(outer, exprs, names)
			if err != nil {
				t.Fatalf("seed %d: NewProject: %v", seed, err)
			}
			return pr
		}
		opts := map[string]encChoice{"A": encOptions(rng), "B": encOptions(rng), "C": encOptions(rng)}
		rowCtx, vecCtx := joinCtxFor(t, map[string]*table.Table{"A": a, "B": b, "C": c}, opts)

		want, wantErr := build().Run(rowCtx)
		st := &Stats{}
		lowered := Lower(build(), st)
		if js, ok := lowered.(*HashJoinScan); ok && js.Left.Inner != nil {
			innerSides++
		}
		got, gotErr := lowered.Run(vecCtx)
		mustEqual(t, int64(seed), "join-over-join Run", want, got, wantErr, gotErr)

		if _, ok := lowered.(*HashJoinScan); ok && wantErr == nil {
			st2 := &Stats{}
			lowered2 := Lower(build(), st2)
			got2, gotErr2 := decodeChunked(t, lowered2.(*HashJoinScan), vecCtx)
			mustEqual(t, int64(seed), "join-over-join RunChunked", want, got2, wantErr, gotErr2)
			if st2.Fallbacks != 0 {
				t.Fatalf("seed %d: chunked join tree fell back %d times with fully chunked inputs", seed, st2.Fallbacks)
			}
			chunkedRuns++
		}
	}
	if innerSides == 0 {
		t.Fatal("no iteration composed a join over a join's chunked output")
	}
	if chunkedRuns == 0 {
		t.Fatal("no iteration exercised RunChunked on the join tree")
	}
}

// TestDifferentialAggOverJoin: Aggregate(HashJoin(A, B)) lowers onto
// AggScan consuming the join's chunked output and must match the row
// engine byte for byte.
func TestDifferentialAggOverJoin(t *testing.T) {
	iters := 150
	if testing.Short() {
		iters = 30
	}
	aggOverJoin := 0
	for seed := 11000; seed < 11000+iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		nA, nB := rowCount(rng), rowCount(rng)
		a, b := genTable(rng, nA), genTable(rng, nB)
		ka := withKey(rng, a, "ka", table.Str, nA)
		kb := withKey(rng, b, "kb", table.Str, nB)

		build := func() engine.Node {
			hj := &engine.HashJoin{
				Left:      &engine.Scan{Name: "A", Sch: a.Schema},
				Right:     &engine.Scan{Name: "B", Sch: b.Schema},
				LeftKeys:  []int{ka},
				RightKeys: []int{kb},
			}
			joined := hj.Schema()
			// Group by the key, count rows, and sum the first numeric column
			// when one exists.
			aggs := []engine.AggSpec{{Func: engine.AggCount, Name: "n"}}
			for idx, col := range joined.Cols {
				if col.Type == table.Int || col.Type == table.Float {
					aggs = append(aggs, engine.AggSpec{
						Func: engine.AggSum, Arg: &engine.ColRef{Idx: idx, Name: col.Name}, Name: "s",
					})
					break
				}
			}
			agg, err := engine.NewAggregate(hj, []int{ka}, aggs)
			if err != nil {
				t.Fatalf("seed %d: NewAggregate: %v", seed, err)
			}
			return agg
		}
		opts := map[string]encChoice{"A": encOptions(rng), "B": encOptions(rng)}
		rowCtx, vecCtx := joinCtxFor(t, map[string]*table.Table{"A": a, "B": b}, opts)

		want, wantErr := build().Run(rowCtx)
		st := &Stats{}
		lowered := Lower(build(), st)
		if as, ok := lowered.(*AggScan); ok && as.Inner != nil {
			aggOverJoin++
		}
		got, gotErr := lowered.Run(vecCtx)
		mustEqual(t, int64(seed), "agg over join", want, got, wantErr, gotErr)
	}
	if aggOverJoin == 0 {
		t.Fatal("no iteration aggregated a join's chunked output")
	}
}
