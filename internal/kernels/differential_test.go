package kernels

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/shortcircuit-db/sc/internal/colfmt"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// The differential suite: for randomized tables, encodings, predicates and
// plan shapes, a lowered plan must produce byte-identical results to the
// row engine — compared via the serialized v1 format, which canonicalizes
// nil-vs-empty slices but preserves every value bit (including float
// payloads).

// colShape enumerates generator shapes that exercise specific codecs.
type colShape int

const (
	shapeConst    colShape = iota // width-0 delta or dictionary
	shapeRuns                     // few long runs
	shapeLowCard                  // dictionary
	shapeHighCard                 // dict overflow to raw/delta
	shapeSorted                   // delta
	shapeDecimal                  // floatdec
	shapeRandomF                  // raw floats
	numShapes
)

func genVector(rng *rand.Rand, typ table.Type, shape colShape, n int) *table.Vector {
	v := &table.Vector{Type: typ}
	mk := func(i int) int64 {
		switch shape {
		case shapeConst:
			return 7
		case shapeRuns:
			return int64(i / (1 + rng.Intn(20) + 5) % 4)
		case shapeLowCard:
			return int64(rng.Intn(5))
		case shapeHighCard:
			return rng.Int63n(1 << 40)
		case shapeSorted:
			return int64(i * 3)
		default:
			return rng.Int63n(100)
		}
	}
	for i := 0; i < n; i++ {
		switch typ {
		case table.Int:
			v.Ints = append(v.Ints, mk(i))
		case table.Float:
			switch shape {
			case shapeConst:
				v.Floats = append(v.Floats, 2.5)
			case shapeDecimal:
				v.Floats = append(v.Floats, float64(rng.Intn(10000))/100)
			default:
				v.Floats = append(v.Floats, rng.NormFloat64()*100)
			}
		default:
			switch shape {
			case shapeConst:
				v.Strs = append(v.Strs, "aaaa")
			case shapeHighCard:
				v.Strs = append(v.Strs, fmt.Sprintf("s%d-%d", i, rng.Int63()))
			default:
				v.Strs = append(v.Strs, fmt.Sprintf("cat%d", rng.Intn(6)))
			}
		}
	}
	return v
}

func genTable(rng *rand.Rand, nRows int) *table.Table {
	nCols := 1 + rng.Intn(4)
	var sch table.Schema
	var cols []*table.Vector
	for c := 0; c < nCols; c++ {
		typ := table.Type(rng.Intn(3))
		sch.Cols = append(sch.Cols, table.Column{Name: fmt.Sprintf("c%d", c), Type: typ})
		cols = append(cols, genVector(rng, typ, colShape(rng.Intn(int(numShapes))), nRows))
	}
	return &table.Table{Schema: sch, Cols: cols}
}

// litFor picks a literal that has a chance of matching the column.
func litFor(rng *rand.Rand, t *table.Table, col int) engine.Expr {
	v := t.Cols[col]
	if v.Len() == 0 || rng.Intn(4) == 0 {
		// Literal absent from the column (or arbitrary for empty tables).
		switch v.Type {
		case table.Int:
			return &engine.Lit{V: table.IntValue(rng.Int63n(1000) - 500)}
		case table.Float:
			return &engine.Lit{V: table.FloatValue(rng.Float64() * 100)}
		default:
			return &engine.Lit{V: table.StrValue("absent")}
		}
	}
	return &engine.Lit{V: v.Value(rng.Intn(v.Len()))}
}

// genPred builds a random predicate; compilable is not guaranteed, which
// exercises the lowering's decline path too.
func genPred(rng *rand.Rand, t *table.Table, depth int) engine.Expr {
	nCols := len(t.Cols)
	if depth > 0 && rng.Intn(2) == 0 {
		op := engine.OpAnd
		if rng.Intn(2) == 0 {
			op = engine.OpOr
		}
		l := genPred(rng, t, depth-1)
		r := genPred(rng, t, depth-1)
		var e engine.Expr = &engine.Bin{Op: op, L: l, R: r}
		if rng.Intn(4) == 0 {
			e = &engine.Not{E: e}
		}
		return e
	}
	col := rng.Intn(nCols)
	cr := &engine.ColRef{Idx: col, Name: t.Schema.Cols[col].Name}
	if rng.Intn(5) == 0 { // IN list
		var list []table.Value
		for k := 0; k < 1+rng.Intn(4); k++ {
			if lit, ok := litFor(rng, t, col).(*engine.Lit); ok {
				list = append(list, lit.V)
			}
		}
		return &engine.InList{E: cr, List: list}
	}
	ops := []engine.BinOp{engine.OpEq, engine.OpNe, engine.OpLt, engine.OpLe, engine.OpGt, engine.OpGe}
	op := ops[rng.Intn(len(ops))]
	lit := litFor(rng, t, col)
	if rng.Intn(2) == 0 {
		return &engine.Bin{Op: op, L: cr, R: lit}
	}
	return &engine.Bin{Op: op, L: lit, R: cr}
}

// encChoice is how a differential test stores one input table: with the
// writer's options, and with rleEvery = k > 0 chunk g of column c then
// rewritten as a hand-built RLE chunk whenever (c+g) % k == 0 — every chunk
// at k = 1, a checkerboard at k = 2 — which is what a store written before
// RLE became decode-only holds.
type encChoice struct {
	opts     encoding.Options
	rleEvery int
}

// compress stores tbl as c says.
func (c encChoice) compress(t *testing.T, tbl *table.Table) *encoding.Compressed {
	t.Helper()
	ct, err := encoding.FromTable(tbl, c.opts)
	if err != nil {
		t.Fatalf("FromTable: %v", err)
	}
	if c.rleEvery <= 0 {
		return ct
	}
	for ci, chunks := range ct.Cols {
		for g := range chunks {
			if (ci+g)%c.rleEvery != 0 {
				continue
			}
			vec, err := encoding.DecodeChunk(chunks[g], ct.Schema.Cols[ci].Type)
			if err != nil {
				t.Fatal(err)
			}
			chunks[g] = encoding.Chunk{Codec: encoding.RLE, Rows: chunks[g].Rows, Data: rlePayload(vec)}
		}
	}
	return ct
}

// rlePayload lays v out the way the retired RLE writer did: per run of
// equal values (floats by bit pattern), uvarint(runLen) and then the value
// as a zig-zag varint, 8 little-endian float bits or a length-prefixed
// string.
func rlePayload(v *table.Vector) []byte {
	var buf []byte
	for i := 0; i < v.Len(); {
		j := i + 1
		for j < v.Len() && bitsEqual(v.Value(i), v.Value(j)) {
			j++
		}
		buf = binary.AppendUvarint(buf, uint64(j-i))
		switch v.Type {
		case table.Int:
			buf = binary.AppendVarint(buf, v.Ints[i])
		case table.Float:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Floats[i]))
		default:
			buf = append(binary.AppendUvarint(buf, uint64(len(v.Strs[i]))), v.Strs[i]...)
		}
		i = j
	}
	return buf
}

func bitsEqual(a, b table.Value) bool {
	return a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

// ctxFor builds an execution context resolving name to tbl, plain for the
// row engine and chunked for the kernels.
func ctxFor(t *testing.T, name string, tbl *table.Table, enc encChoice) (row, vec *engine.Context) {
	t.Helper()
	ct := enc.compress(t, tbl)
	resolve := func(n string) (*table.Table, error) {
		if n != name {
			return nil, fmt.Errorf("unknown table %q", n)
		}
		// Serve through a decode round-trip so both engines read the exact
		// same values.
		return ct.Table()
	}
	row = &engine.Context{Resolve: resolve}
	vec = &engine.Context{
		Resolve: resolve,
		ResolveCompressed: func(n string) (*encoding.Compressed, error) {
			if n != name {
				return nil, fmt.Errorf("unknown table %q", n)
			}
			return ct, nil
		},
	}
	return row, vec
}

// mustEqual compares two plan results via their serialized form.
func mustEqual(t *testing.T, seed int64, desc string, want, got *table.Table, wantErr, gotErr error) {
	t.Helper()
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("seed %d %s: row engine err=%v, kernels err=%v", seed, desc, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	wb, err := colfmt.Encode(want)
	if err != nil {
		t.Fatalf("encode want: %v", err)
	}
	gb, err := colfmt.Encode(got)
	if err != nil {
		t.Fatalf("encode got: %v", err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatalf("seed %d %s: results differ\nrow engine: %d rows\nkernels: %d rows",
			seed, desc, want.NumRows(), got.NumRows())
	}
}

func encOptions(rng *rand.Rand) encChoice {
	var c encChoice
	switch rng.Intn(4) {
	case 0:
		c.opts.Mode = encoding.ModeRaw
	case 1:
		c.opts.ChunkRows = 1 + rng.Intn(7) // many tiny chunks
	case 2:
		c.opts.ChunkRows = 64
	}
	if rng.Intn(4) == 0 {
		c.rleEvery = 1 + rng.Intn(2)
	}
	return c
}

func rowCount(rng *rand.Rand) int {
	switch rng.Intn(6) {
	case 0:
		return 0 // empty table
	case 1:
		return 1
	default:
		return 1 + rng.Intn(300)
	}
}

func TestDifferentialFilter(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		tbl := genTable(rng, rowCount(rng))
		scan := func() *engine.Scan { return &engine.Scan{Name: "t", Sch: tbl.Schema} }
		pred := genPred(rng, tbl, 2)
		rowCtx, vecCtx := ctxFor(t, "t", tbl, encOptions(rng))

		plain := &engine.Filter{Input: scan(), Pred: pred}
		want, wantErr := plain.Run(rowCtx)

		st := &Stats{}
		lowered := Lower(&engine.Filter{Input: scan(), Pred: pred}, st)
		got, gotErr := lowered.Run(vecCtx)
		mustEqual(t, int64(seed), fmt.Sprintf("filter %v", pred), want, got, wantErr, gotErr)
	}

	// The directed dictionary-predicate table, each predicate filtering the
	// probe side of a join against a table holding every key once: a
	// comparison compiles into the side's predicate and is evaluated on the
	// dictionary chunks, an IN list keeps the row engine; both must match
	// it.
	ct, preds := dictPredTable(t)
	keys := table.New(table.NewSchema(table.Column{Name: "k", Type: table.Int}))
	keys.Cols[0].Ints = []int64{7, -2, 40, 3}
	kt, err := encoding.FromTable(keys, encoding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]*encoding.Compressed{"t": ct, "k": kt}
	rowCtx := &engine.Context{Resolve: func(n string) (*table.Table, error) { return tables[n].Table() }}
	vecCtx := &engine.Context{
		Resolve:           rowCtx.Resolve,
		ResolveCompressed: func(n string) (*encoding.Compressed, error) { return tables[n], nil },
	}
	for _, pred := range preds {
		build := func() engine.Node {
			return &engine.HashJoin{
				Left:     &engine.Filter{Input: &engine.Scan{Name: "t", Sch: ct.Schema}, Pred: pred},
				Right:    &engine.Scan{Name: "k", Sch: keys.Schema},
				LeftKeys: []int{0}, RightKeys: []int{0},
			}
		}
		want, wantErr := build().Run(rowCtx)
		st := &Stats{}
		got, gotErr := Lower(build(), st).Run(vecCtx)
		mustEqual(t, 0, fmt.Sprintf("dictionary side filter %v", pred), want, got, wantErr, gotErr)
		_, compiles := Compile(pred, ct.Schema)
		if lowered := st.Lowered == 2 && st.Fallbacks == 0; lowered != compiles {
			t.Fatalf("%v: compiles=%v but stats %+v", pred, compiles, *st)
		}
	}
}

// dictPredTable is the directed dictionary-predicate table: a two-column
// table whose every chunk is dictionary-encoded with an unsorted entry
// table that repeats an entry (and orders it differently per row group),
// and every comparison operator plus IN against literals that are present,
// absent between two entries, below the minimum and above the maximum.
func dictPredTable(t *testing.T) (*encoding.Compressed, []engine.Expr) {
	t.Helper()
	sch := table.NewSchema(table.Column{Name: "i", Type: table.Int}, table.Column{Name: "s", Type: table.Str})
	ct := &encoding.Compressed{Schema: sch, Cols: make([][]encoding.Chunk, 2)}
	ints := [][]int64{{7, -2, 7, 40, 3}, {40, 3, -2, 3, 7}}
	strs := [][]string{{"m", "b", "m", "x", "d"}, {"x", "d", "b", "d", "m"}}
	for g := range ints {
		codes := make([]int32, 11)
		for r := range codes {
			codes[r] = int32((r*3 + g) % 5)
		}
		ic, err := encoding.BuildDictChunk(&table.Vector{Type: table.Int, Ints: ints[g]}, codes)
		if err != nil {
			t.Fatal(err)
		}
		scn, err := encoding.BuildDictChunk(&table.Vector{Type: table.Str, Strs: strs[g]}, codes)
		if err != nil {
			t.Fatal(err)
		}
		ct.Cols[0], ct.Cols[1] = append(ct.Cols[0], ic), append(ct.Cols[1], scn)
		ct.NRows += len(codes)
	}
	lits := [][]table.Value{
		{table.IntValue(7), table.IntValue(5), table.IntValue(-9), table.IntValue(100)},
		{table.StrValue("m"), table.StrValue("c"), table.StrValue("a"), table.StrValue("z")},
	}
	var preds []engine.Expr
	for col, ls := range lits {
		cr := &engine.ColRef{Idx: col, Name: sch.Cols[col].Name}
		for _, op := range []engine.BinOp{engine.OpEq, engine.OpNe, engine.OpLt, engine.OpLe, engine.OpGt, engine.OpGe} {
			for _, l := range ls {
				preds = append(preds, &engine.Bin{Op: op, L: cr, R: &engine.Lit{V: l}})
			}
		}
		preds = append(preds,
			&engine.InList{E: cr, List: []table.Value{ls[0], ls[1]}},
			&engine.InList{E: cr, List: []table.Value{ls[2], ls[3]}},
			&engine.InList{E: cr, List: []table.Value{ls[0], ls[0]}})
	}
	return ct, preds
}

func genAgg(rng *rand.Rand, tbl *table.Table, input engine.Node) (*engine.Aggregate, error) {
	nCols := len(tbl.Cols)
	var groupBy []int
	for c := 0; c < nCols && len(groupBy) < 2; c++ {
		if rng.Intn(3) == 0 {
			groupBy = append(groupBy, c)
		}
	}
	var specs []engine.AggSpec
	nAggs := 1 + rng.Intn(3)
	for k := 0; k < nAggs; k++ {
		fn := engine.AggFunc(rng.Intn(5))
		spec := engine.AggSpec{Func: fn, Name: fmt.Sprintf("a%d", k)}
		if fn != engine.AggCount || rng.Intn(2) == 0 {
			col := rng.Intn(nCols)
			var arg engine.Expr = &engine.ColRef{Idx: col}
			if tbl.Cols[col].Type != table.Str && rng.Intn(3) == 0 {
				// Arithmetic argument over one or two columns.
				col2 := rng.Intn(nCols)
				if tbl.Cols[col2].Type != table.Str {
					arg = &engine.Bin{Op: engine.OpMul, L: arg, R: &engine.ColRef{Idx: col2}}
				} else {
					arg = &engine.Bin{Op: engine.OpAdd, L: arg, R: &engine.Lit{V: table.IntValue(3)}}
				}
			}
			if (fn == engine.AggSum || fn == engine.AggAvg) && tbl.Cols[col].Type == table.Str {
				// SUM/AVG over STRING is a planning error; use COUNT instead.
				spec.Func = engine.AggCount
			}
			spec.Arg = arg
		}
		specs = append(specs, spec)
	}
	return engine.NewAggregate(input, groupBy, specs)
}

func TestDifferentialAggregate(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for seed := 1000; seed < 1000+iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		tbl := genTable(rng, rowCount(rng))
		withFilter := rng.Intn(2) == 0
		build := func() (engine.Node, error) {
			var in engine.Node = &engine.Scan{Name: "t", Sch: tbl.Schema}
			if withFilter {
				in = &engine.Filter{Input: in, Pred: genPred(rand.New(rand.NewSource(int64(seed))), tbl, 1)}
			}
			return genAgg(rand.New(rand.NewSource(int64(seed)+7)), tbl, in)
		}
		plain, err := build()
		if err != nil {
			continue // invalid spec combination; nothing to compare
		}
		loweredSrc, err := build()
		if err != nil {
			t.Fatalf("seed %d: second build failed: %v", seed, err)
		}
		rowCtx, vecCtx := ctxFor(t, "t", tbl, encOptions(rng))
		want, wantErr := plain.Run(rowCtx)
		st := &Stats{}
		lowered := Lower(loweredSrc, st)
		got, gotErr := lowered.Run(vecCtx)
		mustEqual(t, int64(seed), "aggregate", want, got, wantErr, gotErr)
	}
}

// TestDifferentialJoinPushdown exercises Filter(HashJoin(Scan, Scan)).
func TestDifferentialJoinPushdown(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for seed := 2000; seed < 2000+iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n1, n2 := rowCount(rng), rowCount(rng)
		left := genTable(rng, n1)
		right := genTable(rng, n2)
		// Give both sides a guaranteed-joinable key column.
		key1 := genVector(rng, table.Int, shapeLowCard, n1)
		key2 := genVector(rng, table.Int, shapeLowCard, n2)
		left.Schema.Cols = append(left.Schema.Cols, table.Column{Name: "lk", Type: table.Int})
		left.Cols = append(left.Cols, key1)
		right.Schema.Cols = append(right.Schema.Cols, table.Column{Name: "rk", Type: table.Int})
		right.Cols = append(right.Cols, key2)

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
			return &engine.Filter{Input: hj, Pred: genPred(rand.New(rand.NewSource(int64(seed)+3)), joined, 2)}
		}

		resolve := func(tables map[string]*encoding.Compressed) (*engine.Context, *engine.Context) {
			r := func(n string) (*table.Table, error) {
				ct, ok := tables[n]
				if !ok {
					return nil, fmt.Errorf("unknown table %q", n)
				}
				return ct.Table()
			}
			rc := func(n string) (*encoding.Compressed, error) {
				return tables[n], nil
			}
			return &engine.Context{Resolve: r}, &engine.Context{Resolve: r, ResolveCompressed: rc}
		}
		opts := encOptions(rng)
		rowCtx, vecCtx := resolve(map[string]*encoding.Compressed{"L": opts.compress(t, left), "R": opts.compress(t, right)})

		want, wantErr := build().Run(rowCtx)
		st := &Stats{}
		got, gotErr := Lower(build(), st).Run(vecCtx)
		mustEqual(t, int64(seed), "join pushdown", want, got, wantErr, gotErr)
	}
}

// TestFallbackIdentical runs lowered plans without a compressed resolver:
// every kernel must fall back, record it, and still match the row engine.
func TestFallbackIdentical(t *testing.T) {
	for seed := 3000; seed < 3040; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		tbl := genTable(rng, rowCount(rng))
		build := func() (engine.Node, error) {
			return genAgg(rand.New(rand.NewSource(int64(seed)+7)), tbl, &engine.Scan{Name: "t", Sch: tbl.Schema})
		}
		plain, err := build()
		if err != nil {
			continue // invalid spec combination; nothing to compare
		}
		loweredSrc, err := build()
		if err != nil {
			t.Fatalf("seed %d: second build failed: %v", seed, err)
		}
		rowCtx, _ := ctxFor(t, "t", tbl, encChoice{})
		want, wantErr := plain.Run(rowCtx)
		st := &Stats{}
		lowered := Lower(loweredSrc, st)
		got, gotErr := lowered.Run(rowCtx) // no ResolveCompressed: forced fallback
		mustEqual(t, int64(seed), "fallback", want, got, wantErr, gotErr)
		if _, isKernel := lowered.(*AggScan); isKernel && wantErr == nil && st.Fallbacks == 0 {
			t.Fatalf("seed %d: kernel did not record its fallback", seed)
		}
	}
}

// TestKernelStats sanity-checks the counters on a shape where every win
// should fire: a join side filter that rejects every row, so its row
// groups' other columns are skipped without a decode, and an aggregation
// reading a dictionary column by code.
func TestKernelStats(t *testing.T) {
	n := 1000
	tbl := table.New(table.NewSchema(
		table.Column{Name: "cat", Type: table.Str},
		table.Column{Name: "run", Type: table.Int},
		table.Column{Name: "payload", Type: table.Str},
	))
	for i := 0; i < n; i++ {
		cat := "hot"
		if i%2 == 0 {
			cat = fmt.Sprintf("cold%d", i%3)
		}
		if err := tbl.AppendRow(
			table.StrValue(cat),
			table.IntValue(int64(i/100)),
			table.StrValue(fmt.Sprintf("wide-payload-%d", i%4)),
		); err != nil {
			t.Fatal(err)
		}
	}
	_, vecCtx := ctxFor(t, "t", tbl, encChoice{opts: encoding.Options{ChunkRows: 100}})

	// A self-join whose build side keeps no row: the predicate reads only
	// the run column, so the build side's cat and payload chunks are never
	// touched.
	pred := &engine.Bin{Op: engine.OpEq,
		L: &engine.ColRef{Idx: 1}, R: &engine.Lit{V: table.IntValue(-1)}}
	st := &Stats{}
	node := Lower(&engine.HashJoin{
		Left:     &engine.Scan{Name: "t", Sch: tbl.Schema},
		Right:    &engine.Filter{Input: &engine.Scan{Name: "t", Sch: tbl.Schema}, Pred: pred},
		LeftKeys: []int{0}, RightKeys: []int{0},
	}, st)
	out, err := node.Run(vecCtx)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatalf("expected empty result, got %d rows", out.NumRows())
	}
	if st.Lowered != 2 {
		t.Fatalf("Lowered = %d, want 2 (join and side filter)", st.Lowered)
	}
	if st.JoinBuildRows != 0 {
		t.Fatalf("JoinBuildRows = %d, want 0", st.JoinBuildRows)
	}
	// The filter matched nothing: the build side's cat+payload chunks must
	// never decode.
	if st.ChunksSkipped < 20 {
		t.Fatalf("ChunksSkipped = %d, want >= 20", st.ChunksSkipped)
	}

	// COUNT(*) grouped by the dictionary column: gathered by code, never
	// decoded.
	agg, err := engine.NewAggregate(&engine.Scan{Name: "t", Sch: tbl.Schema}, []int{0},
		[]engine.AggSpec{{Func: engine.AggCount, Name: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	st2 := &Stats{}
	node2 := Lower(agg, st2)
	out2, err := node2.Run(vecCtx)
	if err != nil {
		t.Fatal(err)
	}
	if out2.NumRows() != 4 {
		t.Fatalf("expected 4 groups, got %d", out2.NumRows())
	}
	if st2.DecodedBytes != 0 {
		t.Fatalf("DecodedBytes = %d, want 0 for an aggregation over dictionary codes", st2.DecodedBytes)
	}
	if st2.DecodesAvoided != 10 {
		t.Fatalf("DecodesAvoided = %d, want one per row group for an aggregation over dictionary codes", st2.DecodesAvoided)
	}
}

// TestOlderRLEChunksThroughKernels runs chunks an older store wrote as RLE
// — INT, FLOAT (a NaN run included) and STRING — through every kernel
// path: a side filter on each type, INT and STRING join keys, gathered
// output columns in both output forms, and an aggregate grouping and
// summing them. RLE chunks decode whole, so they count as decoded bytes;
// every result must match the row engine's over the table as it was before
// it was stored, byte for byte.
func TestOlderRLEChunksThroughKernels(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000bad)
	tbl := table.New(table.NewSchema(
		table.Column{Name: "k", Type: table.Int},
		table.Column{Name: "f", Type: table.Float},
		table.Column{Name: "s", Type: table.Str},
	))
	for i := 0; i < 60; i++ {
		f := []float64{1.5, nan, -2.25, 0}[i/7%4]
		if err := tbl.AppendRow(table.IntValue(int64(i/4%5)), table.FloatValue(f),
			table.StrValue([]string{"Books", "", "Toys"}[i/9%3])); err != nil {
			t.Fatal(err)
		}
	}
	_, vecCtx := ctxFor(t, "t", tbl, encChoice{opts: encoding.Options{ChunkRows: 16}, rleEvery: 1})
	rowCtx := &engine.Context{Resolve: func(string) (*table.Table, error) { return tbl, nil }}
	scan := func() *engine.Scan { return &engine.Scan{Name: "t", Sch: tbl.Schema} }
	side := func(col int, lit table.Value) engine.Node {
		return &engine.Filter{Input: scan(), Pred: &engine.Bin{Op: engine.OpGe, L: &engine.ColRef{Idx: col}, R: &engine.Lit{V: lit}}}
	}
	joins := map[string]func() engine.Node{
		"int key, int filter": func() engine.Node {
			return &engine.HashJoin{Left: side(0, table.IntValue(2)), Right: scan(), LeftKeys: []int{0}, RightKeys: []int{0}}
		},
		"string key, float filter": func() engine.Node {
			return &engine.HashJoin{Left: scan(), Right: side(1, table.FloatValue(0)), LeftKeys: []int{2}, RightKeys: []int{2}}
		},
		"two keys, string filter": func() engine.Node {
			return &engine.HashJoin{Left: side(2, table.StrValue("C")), Right: scan(), LeftKeys: []int{0, 2}, RightKeys: []int{0, 2}}
		},
	}
	for name, build := range joins {
		want, wantErr := build().Run(rowCtx)
		st := &Stats{}
		j, ok := Lower(build(), st).(*HashJoinScan)
		if !ok {
			t.Fatalf("%s: did not lower onto the join kernel", name)
		}
		got, gotErr := j.Run(vecCtx)
		mustEqual(t, 0, name, want, got, wantErr, gotErr)
		if st.Fallbacks != 0 || st.DecodedBytes == 0 {
			t.Fatalf("%s: stats %+v, want no fallback and the RLE chunks counted as decoded", name, *st)
		}
		j, _ = Lower(build(), &Stats{}).(*HashJoinScan)
		got, gotErr = decodeChunked(t, j, vecCtx)
		mustEqual(t, 0, name+" chunked", want, got, wantErr, gotErr)
	}
	agg := func() engine.Node {
		a, err := engine.NewAggregate(scan(), []int{2, 0}, []engine.AggSpec{
			{Func: engine.AggSum, Arg: &engine.ColRef{Idx: 1}, Name: "sf"},
			{Func: engine.AggCount, Name: "n"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	want, wantErr := agg().Run(rowCtx)
	st := &Stats{}
	got, gotErr := Lower(agg(), st).Run(vecCtx)
	mustEqual(t, 0, "aggregate", want, got, wantErr, gotErr)
	if st.Lowered != 1 || st.Fallbacks != 0 {
		t.Fatalf("aggregate stats %+v, want it on the kernel", *st)
	}
}

// TestAggScanErrorPrecedence pins the error an aggregation reports on both
// kernel paths — AggScan over a chunked scan, and AggScan absorbing a join
// that fell back (accumulateTable) — to the row engine's: the earliest
// failing row's, and within that row the first failing aggregate's. The
// failing rows sit in different row groups and accumulation batches.
func TestAggScanErrorPrecedence(t *testing.T) {
	const rows = 2500
	const divErr = `engine: agg "q": engine: division by zero`
	const modErr = `engine: agg "m": engine: modulo by zero`
	keys := table.New(table.NewSchema(table.Column{Name: "k", Type: table.Int}))
	for i := 0; i < rows; i++ {
		keys.Cols[0].Ints = append(keys.Cols[0].Ints, int64(i))
	}
	for _, tc := range []struct {
		zeroB, zeroC int
		want         string
	}{
		{1500, 1100, modErr}, // the second aggregate fails first
		{1100, 1500, divErr},
		{1300, 1300, divErr}, // same row: the first aggregate's error
		{3, 2100, divErr},
	} {
		// SUM(a / b) fails only at zeroB, SUM(a % c) only at zeroC.
		tbl := table.New(table.NewSchema(
			table.Column{Name: "a", Type: table.Int},
			table.Column{Name: "b", Type: table.Int},
			table.Column{Name: "c", Type: table.Int},
		))
		for i := 0; i < rows; i++ {
			b, c := int64(1+i%5), int64(1+i%3)
			if i == tc.zeroB {
				b = 0
			}
			if i == tc.zeroC {
				c = 0
			}
			_ = tbl.AppendRow(table.IntValue(int64(i)), table.IntValue(b), table.IntValue(c))
		}
		aggOver := func(in engine.Node) engine.Node {
			agg, err := engine.NewAggregate(in, []int{2}, []engine.AggSpec{
				{Func: engine.AggSum, Arg: &engine.Bin{Op: engine.OpDiv, L: &engine.ColRef{Idx: 0}, R: &engine.ColRef{Idx: 1}}, Name: "q"},
				{Func: engine.AggSum, Arg: &engine.Bin{Op: engine.OpMod, L: &engine.ColRef{Idx: 0}, R: &engine.ColRef{Idx: 2}}, Name: "m"},
			})
			if err != nil {
				t.Fatal(err)
			}
			return agg
		}
		scan := func() engine.Node { return &engine.Scan{Name: "t", Sch: tbl.Schema} }
		join := func() engine.Node {
			return &engine.HashJoin{Left: scan(), Right: &engine.Scan{Name: "k", Sch: keys.Schema},
				LeftKeys: []int{0}, RightKeys: []int{0}}
		}
		check := func(desc string, n engine.Node, ctx *engine.Context, fallbacks int64) {
			t.Helper()
			st := &Stats{}
			_, err := Lower(n, st).Run(ctx)
			if err == nil || !strings.HasSuffix(err.Error(), tc.want) {
				t.Fatalf("b=0 at %d, c=0 at %d, %s: err %v, want %s", tc.zeroB, tc.zeroC, desc, err, tc.want)
			}
			if st.Lowered == 0 || st.Fallbacks != fallbacks {
				t.Fatalf("%s: stats %+v, want a lowered aggregate and %d fallbacks", desc, *st, fallbacks)
			}
		}
		for _, chunkRows := range []int{0, 700} {
			row, vec := ctxFor(t, "t", tbl, encChoice{opts: encoding.Options{ChunkRows: chunkRows}})
			if _, err := aggOver(scan()).Run(row); fmt.Sprint(err) != tc.want {
				t.Fatalf("row engine: err %v, want %s", err, tc.want)
			}
			check("AggScan over a scan", aggOver(scan()), vec, 0)
			// No compressed resolver: the join falls back and AggScan
			// accumulates its table.
			tables := map[string]*table.Table{"t": tbl, "k": keys}
			rowOnly := &engine.Context{Resolve: func(n string) (*table.Table, error) { return tables[n], nil }}
			check("AggScan absorbing a fallen-back join", aggOver(join()), rowOnly, 1)
		}
	}
}
