package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
)

// rowAcc is the row-at-a-time accumulator AggAcc replaced, kept as the
// reference FuzzAggBatch checks AddCols against: one boxed row per Add, a
// strconv group key per row, Eval through the Expr interface.
type rowAcc struct {
	a      *Aggregate
	groups map[string]*rowGroup
	order  []string
	key    []byte
}

type rowState struct {
	count    int64
	sumF     float64
	sumI     int64
	min, max table.Value
	haveExt  bool
}

type rowGroup struct {
	keyRow []table.Value
	states []rowState
}

func newRowAcc(a *Aggregate) *rowAcc {
	return &rowAcc{a: a, groups: make(map[string]*rowGroup)}
}

func (acc *rowAcc) add(row []table.Value) error {
	a := acc.a
	acc.key = acc.key[:0]
	for _, g := range a.GroupBy {
		acc.key = appendKey(acc.key, row[g])
	}
	grp, ok := acc.groups[string(acc.key)]
	if !ok {
		k := string(acc.key)
		keyRow := make([]table.Value, len(a.GroupBy))
		for gi, g := range a.GroupBy {
			keyRow[gi] = row[g]
		}
		grp = &rowGroup{keyRow: keyRow, states: make([]rowState, len(a.Aggs))}
		acc.groups[k] = grp
		acc.order = append(acc.order, k)
	}
	for si, spec := range a.Aggs {
		st := &grp.states[si]
		st.count++
		if spec.Func == AggCount && spec.Arg == nil {
			continue
		}
		v, err := spec.Arg.Eval(row)
		if err != nil {
			return fmt.Errorf("engine: agg %q: %w", spec.Name, err)
		}
		switch spec.Func {
		case AggSum, AggAvg:
			if v.Type == table.Str {
				return fmt.Errorf("engine: %s over STRING", aggNames[spec.Func])
			}
			st.sumF += v.AsFloat()
			if v.Type == table.Int {
				st.sumI += v.I
			}
		case AggMin, AggMax:
			if !st.haveExt {
				st.min, st.max, st.haveExt = v, v, true
				continue
			}
			if c, err := v.Compare(st.min); err == nil && c < 0 {
				st.min = v
			}
			if c, err := v.Compare(st.max); err == nil && c > 0 {
				st.max = v
			}
		}
	}
	return nil
}

func (acc *rowAcc) result() (*table.Table, error) {
	a := acc.a
	if len(a.GroupBy) == 0 && len(acc.groups) == 0 {
		acc.groups[""] = &rowGroup{states: make([]rowState, len(a.Aggs))}
		acc.order = append(acc.order, "")
	}
	out := table.New(a.sch)
	for _, k := range acc.order {
		grp := acc.groups[k]
		vals := append([]table.Value(nil), grp.keyRow...)
		for si, spec := range a.Aggs {
			st := grp.states[si]
			outType := a.sch.Cols[len(a.GroupBy)+si].Type
			switch spec.Func {
			case AggCount:
				vals = append(vals, table.IntValue(st.count))
			case AggSum:
				if outType == table.Int {
					vals = append(vals, table.IntValue(st.sumI))
				} else {
					vals = append(vals, table.FloatValue(st.sumF))
				}
			case AggAvg:
				if st.count == 0 {
					vals = append(vals, table.FloatValue(0))
				} else {
					vals = append(vals, table.FloatValue(st.sumF/float64(st.count)))
				}
			case AggMin:
				vals = append(vals, rowExtreme(st.min, st.haveExt, outType))
			case AggMax:
				vals = append(vals, rowExtreme(st.max, st.haveExt, outType))
			}
		}
		if err := out.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func rowExtreme(v table.Value, have bool, t table.Type) table.Value {
	if have {
		return coerce(v, t)
	}
	switch t {
	case table.Int:
		return table.IntValue(0)
	case table.Float:
		return table.FloatValue(0)
	default:
		return table.StrValue("")
	}
}

// runRows aggregates tb through the reference row loop.
func runRows(a *Aggregate, tb *table.Table) (*table.Table, error) {
	acc := newRowAcc(a)
	row := make([]table.Value, len(tb.Cols))
	for i := 0; i < tb.NumRows(); i++ {
		fillRow(tb, i, row)
		if err := acc.add(row); err != nil {
			return nil, err
		}
	}
	return acc.result()
}

// sameBits reports the first difference between two tables, comparing
// floats by their bits, or "" when they are identical. The one exception
// is a NaN's payload: which operand's NaN x86 keeps from NaN + NaN depends
// on the order the compiler emits the operands in, which Go leaves open.
// Any NaN therefore matches any NaN; -0.0 never matches 0.0.
func sameBits(want, got *table.Table) string {
	if !want.Schema.Equal(got.Schema) {
		return fmt.Sprintf("schema %s, want %s", got.Schema, want.Schema)
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Sprintf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	if err := got.Validate(); err != nil {
		return err.Error()
	}
	for c, wv := range want.Cols {
		gv := got.Cols[c]
		for i := 0; i < want.NumRows(); i++ {
			w, g := wv.Value(i), gv.Value(i)
			sameF := math.Float64bits(w.F) == math.Float64bits(g.F) || math.IsNaN(w.F) && math.IsNaN(g.F)
			if w.Type != g.Type || w.I != g.I || w.S != g.S || !sameF {
				return fmt.Sprintf("row %d col %d: %#v (bits %x), want %#v (bits %x)", i, c, g, math.Float64bits(g.F), w, math.Float64bits(w.F))
			}
		}
	}
	return ""
}

// aggGen draws an aggregation over a random table from a fuzz input.
type aggGen struct {
	spec []byte
	rng  *rand.Rand
}

// pick returns a choice in [0, n), from the spec bytes while they last.
func (g *aggGen) pick(n int) int {
	if len(g.spec) == 0 {
		return g.rng.Intn(n)
	}
	b := g.spec[0]
	g.spec = g.spec[1:]
	return int(b) % n
}

var (
	fuzzInts   = []int64{0, 1, -1, 2, 3, 7, -5, 100, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	fuzzFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
		math.Inf(1), math.Inf(-1), 1.5, -2.25, 0.1, 1e300, 3}
	fuzzStrs = []string{"", "a", "b", "ab", "ba", "a|b", "zz"}
)

func (g *aggGen) value(t table.Type) table.Value {
	switch t {
	case table.Int:
		if g.rng.Intn(4) == 0 {
			return table.IntValue(g.rng.Int63n(21) - 10)
		}
		return table.IntValue(fuzzInts[g.rng.Intn(len(fuzzInts))])
	case table.Float:
		if g.rng.Intn(4) == 0 {
			return table.FloatValue(g.rng.NormFloat64())
		}
		return table.FloatValue(fuzzFloats[g.rng.Intn(len(fuzzFloats))])
	default:
		return table.StrValue(fuzzStrs[g.rng.Intn(len(fuzzStrs))])
	}
}

func (g *aggGen) table(rows int) *table.Table {
	var sch table.Schema
	for c := 0; c < 1+g.pick(4); c++ {
		sch.Cols = append(sch.Cols, table.Column{Name: fmt.Sprintf("c%d", c), Type: table.Type(g.pick(3))})
	}
	tb := table.New(sch)
	for i := 0; i < rows; i++ {
		for c, col := range sch.Cols {
			_ = tb.Cols[c].Append(g.value(col.Type))
		}
	}
	return tb
}

// expr draws an argument: column references and literals, + − × ÷ % (the
// columnar path), and comparisons, NOT and IN (the per-row adapter).
func (g *aggGen) expr(sch table.Schema, depth int) Expr {
	switch k := g.pick(8); {
	case k < 3 || depth == 0:
		c := g.pick(sch.NumCols())
		return &ColRef{Idx: c, Name: sch.Cols[c].Name}
	case k == 3:
		return &Lit{V: g.value(table.Type(g.pick(2)))}
	case k < 6:
		ops := []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpMod}
		return &Bin{Op: ops[g.pick(len(ops))], L: g.expr(sch, depth-1), R: g.expr(sch, depth-1)}
	case k == 6:
		ops := []BinOp{OpLt, OpGe, OpEq, OpAnd, OpOr}
		return &Bin{Op: ops[g.pick(len(ops))], L: g.expr(sch, depth-1), R: g.expr(sch, depth-1)}
	default:
		e := g.expr(sch, depth-1)
		if g.pick(2) == 0 {
			return &Not{E: e}
		}
		return &InList{E: e, List: []table.Value{g.value(table.Int), g.value(table.Type(g.pick(3)))}}
	}
}

// readCols marks the columns an expression reads.
func readCols(e Expr, read []bool) {
	switch v := e.(type) {
	case *ColRef:
		read[v.Idx] = true
	case *Bin:
		readCols(v.L, read)
		readCols(v.R, read)
	case *Not:
		readCols(v.E, read)
	case *InList:
		readCols(v.E, read)
	}
}

// FuzzAggBatch checks AggAcc.AddCols against the row-at-a-time loop it
// replaced: over INT, FLOAT, STRING and multi-column keys, NaN and -0.0
// keys and values, every aggregate function over columnar and per-row
// arguments, empty input, batches split at random sizes and unread columns
// left nil, the result tables must be bit-identical and the error text
// identical.
func FuzzAggBatch(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0}, int64(1), uint16(10))
	f.Add([]byte{1, 1, 0, 1, 2, 3, 4}, int64(2), uint16(0))
	f.Add([]byte{3, 2, 2, 2, 1, 5, 3, 4, 0}, int64(3), uint16(2500))
	f.Add([]byte{2, 1, 0, 3, 4, 4, 0, 2, 1}, int64(4), uint16(1025))
	// SUM(c0), COUNT(*) grouped by one INT column whose small keys meet
	// math.MaxInt64 and 1<<53+1 in the third and fourth rows: the group
	// table's dense window moves to its map mid-batch.
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 0, 1}, int64(5), uint16(2000))
	for seed := int64(5); seed < 64; seed++ {
		f.Add([]byte(nil), seed, uint16(seed*37%1500))
	}
	f.Fuzz(func(t *testing.T, spec []byte, seed int64, rows uint16) {
		g := &aggGen{spec: spec, rng: rand.New(rand.NewSource(seed))}
		tb := g.table(int(rows) % 3000)
		sch := tb.Schema
		read := make([]bool, sch.NumCols())
		var groupBy []int
		for c := range sch.Cols {
			if g.pick(3) == 0 {
				groupBy = append(groupBy, c)
				read[c] = true
			}
		}
		var specs []AggSpec
		for k := 0; k < 1+g.pick(4); k++ {
			s := AggSpec{Func: AggFunc(g.pick(5)), Name: fmt.Sprintf("a%d", k)}
			if s.Func != AggCount || g.pick(2) == 0 {
				s.Arg = g.expr(sch, 2)
				readCols(s.Arg, read)
			}
			specs = append(specs, s)
		}
		agg, err := NewAggregate(&Scan{Name: "t", Sch: sch}, groupBy, specs)
		if err != nil {
			return // ill-typed draw: a planning error on both paths
		}
		want, wantErr := runRows(agg, tb)

		cols := make([]*table.Vector, len(tb.Cols))
		for c, v := range tb.Cols {
			if read[c] || g.rng.Intn(2) == 0 {
				cols[c] = v
			}
		}
		acc := agg.NewAcc()
		var gotErr error
		for lo := 0; lo < tb.NumRows() && gotErr == nil; {
			n := min(tb.NumRows()-lo, []int{0, 1, 7, 1023, 1024, 1025, g.rng.Intn(3000)}[g.rng.Intn(7)])
			batch := make([]*table.Vector, len(cols))
			for c, v := range cols {
				if v != nil {
					s := v.Slice(lo, lo+n)
					batch[c] = &s
				}
			}
			gotErr = acc.AddCols(n, batch)
			lo += n
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, want %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		got, err := acc.Result()
		if err != nil {
			t.Fatal(err)
		}
		if d := sameBits(want, got); d != "" {
			t.Fatalf("group by %v, aggs %v: %s", groupBy, specs, d)
		}
	})
}

// TestAvgOverStringIsPlanError: AVG over STRING fails at plan time, like
// SUM, whether the input is empty or not — it used to answer 0 on empty
// input and fail only at run time otherwise.
func TestAvgOverStringIsPlanError(t *testing.T) {
	sch := table.NewSchema(table.Column{Name: "s", Type: table.Str})
	nonEmpty := table.New(sch)
	_ = nonEmpty.AppendRow(table.StrValue("x"))
	for _, tb := range []*table.Table{table.New(sch), nonEmpty} {
		for _, fn := range []AggFunc{AggSum, AggAvg} {
			_, err := NewAggregate(&Scan{Name: "t", Sch: tb.Schema}, nil,
				[]AggSpec{{Func: fn, Arg: &ColRef{Idx: 0}, Name: "x"}})
			if want := aggNames[fn] + " over STRING"; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%d rows, %s: err %v, want %q", tb.NumRows(), aggNames[fn], err, want)
			}
		}
		// MIN and MAX order strings and stay valid.
		agg, err := NewAggregate(&Scan{Name: "t", Sch: tb.Schema}, nil,
			[]AggSpec{{Func: AggMin, Arg: &ColRef{Idx: 0}, Name: "lo"}, {Func: AggMax, Arg: &ColRef{Idx: 0}, Name: "hi"}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := agg.Run(ctxTables(map[string]*table.Table{"t": tb})); err != nil {
			t.Fatalf("%d rows: MIN/MAX over STRING: %v", tb.NumRows(), err)
		}
	}
}

// errorPrecedenceTable builds a table (a, b, c INT) on which SUM(a / b)
// fails only at row zeroB and SUM(a % c) only at row zeroC.
func errorPrecedenceTable(rows, zeroB, zeroC int) *table.Table {
	tb := table.New(table.NewSchema(
		table.Column{Name: "a", Type: table.Int},
		table.Column{Name: "b", Type: table.Int},
		table.Column{Name: "c", Type: table.Int},
	))
	for i := 0; i < rows; i++ {
		b, c := int64(1+i%5), int64(1+i%3)
		if i == zeroB {
			b = 0
		}
		if i == zeroC {
			c = 0
		}
		_ = tb.AppendRow(table.IntValue(int64(i)), table.IntValue(b), table.IntValue(c))
	}
	return tb
}

// TestAggregateErrorPrecedence pins the error a failing aggregation
// reports: the earliest failing row's, and within that row the first
// failing aggregate's — what the row-at-a-time loop returned.
func TestAggregateErrorPrecedence(t *testing.T) {
	specs := []AggSpec{
		{Func: AggSum, Arg: &Bin{Op: OpDiv, L: &ColRef{Idx: 0}, R: &ColRef{Idx: 1}}, Name: "q"},
		{Func: AggSum, Arg: &Bin{Op: OpMod, L: &ColRef{Idx: 0}, R: &ColRef{Idx: 2}}, Name: "m"},
	}
	const divErr = `engine: agg "q": engine: division by zero`
	const modErr = `engine: agg "m": engine: modulo by zero`
	for _, tc := range []struct {
		zeroB, zeroC int
		want         string
	}{
		{1500, 1100, modErr}, // the second aggregate fails first
		{1100, 1500, divErr},
		{1300, 1300, divErr}, // same row: the first aggregate's error
		{3, 2100, divErr},
	} {
		tb := errorPrecedenceTable(2500, tc.zeroB, tc.zeroC)
		agg, err := NewAggregate(&Scan{Name: "t", Sch: tb.Schema}, []int{2}, specs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := agg.Run(ctxTables(map[string]*table.Table{"t": tb})); fmt.Sprint(err) != tc.want {
			t.Fatalf("b=0 at %d, c=0 at %d: err %v, want %s", tc.zeroB, tc.zeroC, err, tc.want)
		}
		if _, err := runRows(agg, tb); fmt.Sprint(err) != tc.want {
			t.Fatalf("reference loop disagrees: %v", err)
		}
	}
}

// BenchmarkAggregateRun measures a refresh-shaped aggregation on the row
// path: SUM(price * qty) and SUM(profit) grouped by an INT key, 200k rows.
func BenchmarkAggregateRun(b *testing.B) {
	tb := table.New(table.NewSchema(
		table.Column{Name: "item", Type: table.Int},
		table.Column{Name: "price", Type: table.Float},
		table.Column{Name: "qty", Type: table.Int},
		table.Column{Name: "profit", Type: table.Float},
	))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		_ = tb.AppendRow(table.IntValue(rng.Int63n(5000)), table.FloatValue(float64(rng.Intn(10000))/100),
			table.IntValue(1+rng.Int63n(20)), table.FloatValue(rng.NormFloat64()*10))
	}
	agg, err := NewAggregate(&Scan{Name: "t", Sch: tb.Schema}, []int{0}, []AggSpec{
		{Func: AggSum, Arg: &Bin{Op: OpMul, L: &ColRef{Idx: 1}, R: &ColRef{Idx: 2}}, Name: "revenue"},
		{Func: AggSum, Arg: &ColRef{Idx: 3}, Name: "profit"},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := ctxTables(map[string]*table.Table{"t": tb})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
