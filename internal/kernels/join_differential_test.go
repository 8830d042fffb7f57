package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// joinCtxFor builds row/vectorized contexts resolving the given tables,
// each stored its own way so the two join sides can carry different chunk
// layouts and codecs.
func joinCtxFor(t *testing.T, tabs map[string]*table.Table, opts map[string]encChoice) (row, vec *engine.Context) {
	t.Helper()
	cts := make(map[string]*encoding.Compressed, len(tabs))
	for name, tb := range tabs {
		cts[name] = opts[name].compress(t, tb)
	}
	resolve := func(n string) (*table.Table, error) {
		ct, ok := cts[n]
		if !ok {
			return nil, fmt.Errorf("unknown table %q", n)
		}
		return ct.Table()
	}
	row = &engine.Context{Resolve: resolve}
	vec = &engine.Context{
		Resolve: resolve,
		ResolveCompressed: func(n string) (*encoding.Compressed, error) {
			return cts[n], nil
		},
	}
	return row, vec
}

// keyShapes are the generator shapes that exercise the join kernel's code
// paths: low cardinality (dict), constant (width-0 delta or dict), sorted
// (delta), high cardinality (dict overflow to raw/delta).
var keyShapes = []colShape{shapeLowCard, shapeConst, shapeSorted, shapeHighCard}

// TestDifferentialJoinKernel: randomized HashJoin(Scan, Scan) plans across
// key types, encodings and row counts (including empty build sides and
// heavy duplicate keys) must match the row engine byte for byte, and must
// actually engage the join kernel.
func TestDifferentialJoinKernel(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	kernelRuns := 0
	for seed := 4000; seed < 4000+iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		nLeft, nRight := rowCount(rng), rowCount(rng)
		if rng.Intn(6) == 0 {
			nRight = 0 // empty build side
		}
		left := genTable(rng, nLeft)
		right := genTable(rng, nRight)
		// Append 1–2 typed key columns to both sides.
		nKeys := 1 + rng.Intn(2)
		var lKeys, rKeys []int
		for k := 0; k < nKeys; k++ {
			typ := table.Int
			if rng.Intn(2) == 0 {
				typ = table.Str
			}
			shape := keyShapes[rng.Intn(len(keyShapes))]
			left.Schema.Cols = append(left.Schema.Cols, table.Column{Name: fmt.Sprintf("lk%d", k), Type: typ})
			left.Cols = append(left.Cols, genVector(rng, typ, shape, nLeft))
			right.Schema.Cols = append(right.Schema.Cols, table.Column{Name: fmt.Sprintf("rk%d", k), Type: typ})
			right.Cols = append(right.Cols, genVector(rng, typ, keyShapes[rng.Intn(len(keyShapes))], nRight))
			lKeys = append(lKeys, len(left.Cols)-1)
			rKeys = append(rKeys, len(right.Cols)-1)
		}
		build := func() engine.Node {
			return &engine.HashJoin{
				Left:      &engine.Scan{Name: "L", Sch: left.Schema},
				Right:     &engine.Scan{Name: "R", Sch: right.Schema},
				LeftKeys:  lKeys,
				RightKeys: rKeys,
			}
		}
		opts := map[string]encChoice{"L": encOptions(rng), "R": encOptions(rng)}
		rowCtx, vecCtx := joinCtxFor(t, map[string]*table.Table{"L": left, "R": right}, opts)

		want, wantErr := build().Run(rowCtx)
		st := &Stats{}
		lowered := Lower(build(), st)
		if _, ok := lowered.(*HashJoinScan); ok {
			kernelRuns++
		}
		got, gotErr := lowered.Run(vecCtx)
		mustEqual(t, int64(seed), "join kernel", want, got, wantErr, gotErr)
	}
	if kernelRuns == 0 {
		t.Fatal("no iteration lowered onto the join kernel")
	}
}

// TestDifferentialJoinWithSidePredicates combines the join kernel with
// pushed-down one-sided filters: Filter(HashJoin(Scan, Scan)) where the
// conjuncts reference the key and non-key columns of either side, and must
// sometimes become a side's compiled predicate.
func TestDifferentialJoinWithSidePredicates(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	sideFiltered := 0
	for seed := 5000; seed < 5000+iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		nLeft, nRight := rowCount(rng), rowCount(rng)
		left := genTable(rng, nLeft)
		right := genTable(rng, nRight)
		lk := genVector(rng, table.Str, shapeLowCard, nLeft)
		rk := genVector(rng, table.Str, shapeLowCard, nRight)
		left.Schema.Cols = append(left.Schema.Cols, table.Column{Name: "lk", Type: table.Str})
		left.Cols = append(left.Cols, lk)
		right.Schema.Cols = append(right.Schema.Cols, table.Column{Name: "rk", Type: table.Str})
		right.Cols = append(right.Cols, rk)

		joined := &table.Table{}
		joined.Schema.Cols = append(joined.Schema.Cols, left.Schema.Cols...)
		joined.Schema.Cols = append(joined.Schema.Cols, right.Schema.Cols...)
		joined.Cols = append(joined.Cols, left.Cols...)
		joined.Cols = append(joined.Cols, right.Cols...)

		build := func() engine.Node {
			hj := &engine.HashJoin{
				Left:      &engine.Scan{Name: "L", Sch: left.Schema},
				Right:     &engine.Scan{Name: "R", Sch: right.Schema},
				LeftKeys:  []int{len(left.Cols) - 1},
				RightKeys: []int{len(right.Cols) - 1},
			}
			return &engine.Filter{Input: hj, Pred: genPred(rand.New(rand.NewSource(int64(seed)+11)), joined, 2)}
		}
		opts := map[string]encChoice{"L": encOptions(rng), "R": encOptions(rng)}
		rowCtx, vecCtx := joinCtxFor(t, map[string]*table.Table{"L": left, "R": right}, opts)
		want, wantErr := build().Run(rowCtx)
		st := &Stats{}
		lowered := Lower(build(), st)
		if js, ok := lowered.(*HashJoinScan); ok && (js.Left.Pred != nil || js.Right.Pred != nil) {
			sideFiltered++
		}
		got, gotErr := lowered.Run(vecCtx)
		mustEqual(t, int64(seed), "join with side predicates", want, got, wantErr, gotErr)
	}
	if sideFiltered == 0 {
		t.Fatal("no iteration lowered a join with a side predicate")
	}
}

// TestJoinFloatKeysFallBack pins the float-key contract: the kernel
// declines float join keys, and the row-engine path it falls back to now
// matches -0.0 with 0.0 and buckets NaNs together — with identical results
// whether or not the plan went through Lower.
func TestJoinFloatKeysFallBack(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	mk := func(vals ...float64) *table.Table {
		tb := table.New(table.NewSchema(
			table.Column{Name: "k", Type: table.Float},
			table.Column{Name: "tag", Type: table.Int},
		))
		for i, f := range vals {
			if err := tb.AppendRow(table.FloatValue(f), table.IntValue(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	left := mk(negZero, nan, 1.25, 7)
	right := mk(0.0, negZero, nan, 1.25)
	build := func() engine.Node {
		return &engine.HashJoin{
			Left:      &engine.Scan{Name: "L", Sch: left.Schema},
			Right:     &engine.Scan{Name: "R", Sch: right.Schema},
			LeftKeys:  []int{0},
			RightKeys: []int{0},
		}
	}
	opts := map[string]encChoice{"L": {}, "R": {}}
	rowCtx, vecCtx := joinCtxFor(t, map[string]*table.Table{"L": left, "R": right}, opts)

	st := &Stats{}
	lowered := Lower(build(), st)
	if _, isKernel := lowered.(*HashJoinScan); isKernel {
		t.Fatal("float join keys must not lower onto the code-space kernel")
	}
	want, wantErr := build().Run(rowCtx)
	got, gotErr := lowered.Run(vecCtx)
	mustEqual(t, 0, "float-key join", want, got, wantErr, gotErr)
	// -0.0 matches both 0.0 and -0.0, NaN matches NaN, 1.25 matches 1.25.
	if want.NumRows() != 4 {
		t.Fatalf("float-key join rows = %d, want 4", want.NumRows())
	}
}

// TestDifferentialProject: projections that drop/permute/duplicate or
// compute columns (optionally over a filter) keep the row engine, and the
// lowered plan must match it byte for byte.
func TestDifferentialProject(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for seed := 6000; seed < 6000+iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		tbl := genTable(rng, rowCount(rng))
		nOut := 1 + rng.Intn(len(tbl.Cols)+1)
		var exprs []engine.Expr
		var names []string
		for k := 0; k < nOut; k++ {
			c := rng.Intn(len(tbl.Cols))
			var e engine.Expr = &engine.ColRef{Idx: c, Name: tbl.Schema.Cols[c].Name}
			if rng.Intn(5) == 0 && tbl.Schema.Cols[c].Type != table.Str {
				// A computed column.
				e = &engine.Bin{Op: engine.OpAdd, L: e, R: &engine.Lit{V: table.IntValue(1)}}
			}
			exprs = append(exprs, e)
			names = append(names, fmt.Sprintf("o%d", k))
		}
		withFilter := rng.Intn(2) == 0
		build := func() (engine.Node, error) {
			var in engine.Node = &engine.Scan{Name: "t", Sch: tbl.Schema}
			if withFilter {
				in = &engine.Filter{Input: in, Pred: genPred(rand.New(rand.NewSource(int64(seed)+5)), tbl, 1)}
			}
			return engine.NewProject(in, exprs, names)
		}
		plain, err := build()
		if err != nil {
			continue
		}
		loweredSrc, err := build()
		if err != nil {
			t.Fatalf("seed %d: second build failed: %v", seed, err)
		}
		rowCtx, vecCtx := ctxFor(t, "t", tbl, encOptions(rng))
		want, wantErr := plain.Run(rowCtx)
		st := &Stats{}
		got, gotErr := Lower(loweredSrc, st).Run(vecCtx)
		mustEqual(t, int64(seed), "project", want, got, wantErr, gotErr)
	}
}

// TestJoinKernelFallbackWithoutChunks: a lowered join without a compressed
// resolver must fall back to the row engine, record it, and still match.
func TestJoinKernelFallbackWithoutChunks(t *testing.T) {
	for seed := 7000; seed < 7030; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		nLeft, nRight := rowCount(rng), rowCount(rng)
		left := genTable(rng, nLeft)
		right := genTable(rng, nRight)
		lk := genVector(rng, table.Int, shapeLowCard, nLeft)
		rk := genVector(rng, table.Int, shapeLowCard, nRight)
		left.Schema.Cols = append(left.Schema.Cols, table.Column{Name: "lk", Type: table.Int})
		left.Cols = append(left.Cols, lk)
		right.Schema.Cols = append(right.Schema.Cols, table.Column{Name: "rk", Type: table.Int})
		right.Cols = append(right.Cols, rk)
		build := func() engine.Node {
			return &engine.HashJoin{
				Left:      &engine.Scan{Name: "L", Sch: left.Schema},
				Right:     &engine.Scan{Name: "R", Sch: right.Schema},
				LeftKeys:  []int{len(left.Cols) - 1},
				RightKeys: []int{len(right.Cols) - 1},
			}
		}
		rowCtx, _ := joinCtxFor(t, map[string]*table.Table{"L": left, "R": right},
			map[string]encChoice{"L": {}, "R": {}})
		want, wantErr := build().Run(rowCtx)
		st := &Stats{}
		lowered := Lower(build(), st)
		got, gotErr := lowered.Run(rowCtx) // no ResolveCompressed: forced fallback
		mustEqual(t, int64(seed), "join fallback", want, got, wantErr, gotErr)
		if _, isKernel := lowered.(*HashJoinScan); isKernel && wantErr == nil && st.Fallbacks == 0 {
			t.Fatalf("seed %d: join kernel did not record its fallback", seed)
		}
	}
}

// TestJoinKernelStats checks the new counters on a join where the
// dictionary intersection drops most probe rows before any decode.
func TestJoinKernelStats(t *testing.T) {
	n := 1000
	left := table.New(table.NewSchema(
		table.Column{Name: "k", Type: table.Str},
		table.Column{Name: "payload", Type: table.Str},
	))
	for i := 0; i < n; i++ {
		// 10 distinct keys; only "key0" exists on the build side. The
		// payload is low-cardinality so it dict-encodes and only surviving
		// rows late-materialize.
		if err := left.AppendRow(
			table.StrValue(fmt.Sprintf("key%d", i%10)),
			table.StrValue(fmt.Sprintf("wide-left-payload-%d", i%7)),
		); err != nil {
			t.Fatal(err)
		}
	}
	right := table.New(table.NewSchema(
		table.Column{Name: "k", Type: table.Str},
		table.Column{Name: "label", Type: table.Str},
	))
	if err := right.AppendRow(table.StrValue("key0"), table.StrValue("hit")); err != nil {
		t.Fatal(err)
	}
	build := func() engine.Node {
		return &engine.HashJoin{
			Left:      &engine.Scan{Name: "L", Sch: left.Schema},
			Right:     &engine.Scan{Name: "R", Sch: right.Schema},
			LeftKeys:  []int{0},
			RightKeys: []int{0},
		}
	}
	opts := map[string]encChoice{"L": {opts: encoding.Options{ChunkRows: 100}}, "R": {}}
	rowCtx, vecCtx := joinCtxFor(t, map[string]*table.Table{"L": left, "R": right}, opts)

	st := &Stats{}
	lowered := Lower(build(), st)
	if _, ok := lowered.(*HashJoinScan); !ok {
		t.Fatalf("plan did not lower onto the join kernel: %s", lowered)
	}
	got, err := lowered.Run(vecCtx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := build().Run(rowCtx)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() || got.NumRows() != n/10 {
		t.Fatalf("join rows = %d, want %d", got.NumRows(), n/10)
	}
	if st.JoinBuildRows != 1 {
		t.Fatalf("JoinBuildRows = %d, want 1", st.JoinBuildRows)
	}
	if st.JoinProbeRows != int64(n) {
		t.Fatalf("JoinProbeRows = %d, want %d", st.JoinProbeRows, n)
	}
	// 9 of 10 keys miss the build dictionary: the left payload chunks only
	// materialize the surviving tenth, so the kernel must move far fewer
	// bytes than a full decode of the left table.
	if st.DecodedBytes >= left.ByteSize()/2 {
		t.Fatalf("DecodedBytes = %d, want well under the %d-byte full decode",
			st.DecodedBytes, left.ByteSize())
	}
}

// TestDifferentialProjectOverJoin fuses a columns-only projection into the
// join kernel: randomized drop/duplicate/permute projections over
// HashJoin(Scan, Scan) must stay byte-identical, and the fusion must fire.
func TestDifferentialProjectOverJoin(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	fused := 0
	for seed := 8000; seed < 8000+iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		nLeft, nRight := rowCount(rng), rowCount(rng)
		left := genTable(rng, nLeft)
		right := genTable(rng, nRight)
		typ := table.Int
		if rng.Intn(2) == 0 {
			typ = table.Str
		}
		left.Schema.Cols = append(left.Schema.Cols, table.Column{Name: "lk", Type: typ})
		left.Cols = append(left.Cols, genVector(rng, typ, keyShapes[rng.Intn(len(keyShapes))], nLeft))
		right.Schema.Cols = append(right.Schema.Cols, table.Column{Name: "rk", Type: typ})
		right.Cols = append(right.Cols, genVector(rng, typ, keyShapes[rng.Intn(len(keyShapes))], nRight))

		joinedW := len(left.Cols) + len(right.Cols)
		nOut := 1 + rng.Intn(joinedW)
		var exprs []engine.Expr
		var names []string
		for k := 0; k < nOut; k++ {
			c := rng.Intn(joinedW)
			exprs = append(exprs, &engine.ColRef{Idx: c})
			names = append(names, fmt.Sprintf("o%d", k))
		}
		build := func() (engine.Node, error) {
			hj := &engine.HashJoin{
				Left:      &engine.Scan{Name: "L", Sch: left.Schema},
				Right:     &engine.Scan{Name: "R", Sch: right.Schema},
				LeftKeys:  []int{len(left.Cols) - 1},
				RightKeys: []int{len(right.Cols) - 1},
			}
			return engine.NewProject(hj, exprs, names)
		}
		opts := map[string]encChoice{"L": encOptions(rng), "R": encOptions(rng)}
		rowCtx, vecCtx := joinCtxFor(t, map[string]*table.Table{"L": left, "R": right}, opts)
		plain, err := build()
		if err != nil {
			t.Fatal(err)
		}
		loweredSrc, err := build()
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := plain.Run(rowCtx)
		st := &Stats{}
		lowered := Lower(loweredSrc, st)
		if js, ok := lowered.(*HashJoinScan); ok && js.Proj != nil {
			fused++
		}
		got, gotErr := lowered.Run(vecCtx)
		mustEqual(t, int64(seed), "project over join", want, got, wantErr, gotErr)
	}
	if fused == 0 {
		t.Fatal("no iteration fused the projection into the join kernel")
	}
}

func isScan(n engine.Node) bool {
	_, ok := n.(*engine.Scan)
	return ok
}

// TestStackedFilterPushdownThroughDissolvedFilter: when an inner filter
// fully pushes its conjuncts below a join and dissolves, the join resurfaces
// as the outer filter's direct input — the outer filter must still push
// down. (Float keys keep the join itself on the row engine, isolating the
// pushdown behavior.)
func TestStackedFilterPushdownThroughDissolvedFilter(t *testing.T) {
	left := table.New(table.NewSchema(
		table.Column{Name: "lk", Type: table.Float},
		table.Column{Name: "x", Type: table.Int},
	))
	right := table.New(table.NewSchema(
		table.Column{Name: "rk", Type: table.Float},
		table.Column{Name: "y", Type: table.Int},
	))
	for i := 0; i < 50; i++ {
		if err := left.AppendRow(table.FloatValue(float64(i%5)), table.IntValue(int64(i-25))); err != nil {
			t.Fatal(err)
		}
		if err := right.AppendRow(table.FloatValue(float64(i%5)), table.IntValue(int64(25-i))); err != nil {
			t.Fatal(err)
		}
	}
	build := func() engine.Node {
		hj := &engine.HashJoin{
			Left:      &engine.Scan{Name: "L", Sch: left.Schema},
			Right:     &engine.Scan{Name: "R", Sch: right.Schema},
			LeftKeys:  []int{0},
			RightKeys: []int{0},
		}
		inner := &engine.Filter{Input: hj, Pred: &engine.Bin{ // right-side only
			Op: engine.OpGt, L: &engine.ColRef{Idx: 3}, R: &engine.Lit{V: table.IntValue(0)}}}
		return &engine.Filter{Input: inner, Pred: &engine.Bin{ // left-side only
			Op: engine.OpGt, L: &engine.ColRef{Idx: 1}, R: &engine.Lit{V: table.IntValue(0)}}}
	}
	st := &Stats{}
	lowered := Lower(build(), st)
	hj, ok := lowered.(*engine.HashJoin)
	if !ok {
		t.Fatalf("lowered root is %T, want the bare row HashJoin (both filters pushed down)", lowered)
	}
	if f, ok := hj.Left.(*engine.Filter); !ok || !isScan(f.Input) {
		t.Fatalf("outer filter was not pushed into the left side: %s", hj.Left)
	}
	if f, ok := hj.Right.(*engine.Filter); !ok || !isScan(f.Input) {
		t.Fatalf("inner filter was not pushed into the right side: %s", hj.Right)
	}
	opts := map[string]encChoice{"L": {opts: encoding.Options{ChunkRows: 16}}, "R": {opts: encoding.Options{ChunkRows: 16}}}
	rowCtx, vecCtx := joinCtxFor(t, map[string]*table.Table{"L": left, "R": right}, opts)
	want, wantErr := build().Run(rowCtx)
	got, gotErr := lowered.Run(vecCtx)
	mustEqual(t, 0, "stacked filter pushdown", want, got, wantErr, gotErr)
}
