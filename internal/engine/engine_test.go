package engine

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/shortcircuit-db/sc/internal/table"
)

// fixedResolver serves tables from a map.
func fixedResolver(tabs map[string]*table.Table) *Context {
	return &Context{Resolve: func(name string) (*table.Table, error) {
		t, ok := tabs[name]
		if !ok {
			return nil, &missingErr{name}
		}
		return t, nil
	}}
}

type missingErr struct{ name string }

func (e *missingErr) Error() string { return "missing table " + e.name }

func ordersTable(t *testing.T) *table.Table {
	t.Helper()
	tb := table.New(table.NewSchema(
		table.Column{Name: "o_id", Type: table.Int},
		table.Column{Name: "o_cust", Type: table.Int},
		table.Column{Name: "o_total", Type: table.Float},
		table.Column{Name: "o_status", Type: table.Str},
	))
	rows := []struct {
		id, cust int64
		total    float64
		status   string
	}{
		{1, 10, 99.5, "open"},
		{2, 10, 20.0, "done"},
		{3, 11, 5.0, "open"},
		{4, 12, 70.0, "done"},
		{5, 12, 30.0, "done"},
	}
	for _, r := range rows {
		if err := tb.AppendRow(table.IntValue(r.id), table.IntValue(r.cust), table.FloatValue(r.total), table.StrValue(r.status)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func custTable(t *testing.T) *table.Table {
	t.Helper()
	tb := table.New(table.NewSchema(
		table.Column{Name: "c_id", Type: table.Int},
		table.Column{Name: "c_name", Type: table.Str},
	))
	for _, r := range []struct {
		id   int64
		name string
	}{{10, "ann"}, {11, "bob"}, {13, "eve"}} {
		if err := tb.AppendRow(table.IntValue(r.id), table.StrValue(r.name)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func scanOf(t *testing.T, tb *table.Table, name string) *Scan {
	t.Helper()
	return &Scan{Name: name, Sch: tb.Schema}
}

func TestScanResolvesAndChecksSchema(t *testing.T) {
	orders := ordersTable(t)
	ctx := fixedResolver(map[string]*table.Table{"orders": orders})
	got, err := scanOf(t, orders, "orders").Run(ctx)
	if err != nil || got.NumRows() != 5 {
		t.Fatalf("scan: %v rows, err %v", got.NumRows(), err)
	}
	bad := &Scan{Name: "orders", Sch: table.NewSchema(table.Column{Name: "x", Type: table.Int})}
	if _, err := bad.Run(ctx); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	if _, err := scanOf(t, orders, "nope").Run(ctx); err == nil {
		t.Fatal("missing table accepted")
	}
}

func TestFilterComparisons(t *testing.T) {
	orders := ordersTable(t)
	ctx := fixedResolver(map[string]*table.Table{"orders": orders})
	f := &Filter{
		Input: scanOf(t, orders, "orders"),
		Pred: &Bin{Op: OpAnd,
			L: &Bin{Op: OpGt, L: &ColRef{Idx: 2}, R: &Lit{V: table.FloatValue(10)}},
			R: &Bin{Op: OpEq, L: &ColRef{Idx: 3}, R: &Lit{V: table.StrValue("done")}},
		},
	}
	got, err := f.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 {
		t.Fatalf("filtered rows = %d, want 3", got.NumRows())
	}
}

func TestProjectArithmetic(t *testing.T) {
	orders := ordersTable(t)
	ctx := fixedResolver(map[string]*table.Table{"orders": orders})
	p, err := NewProject(scanOf(t, orders, "orders"),
		[]Expr{
			&ColRef{Idx: 0},
			&Bin{Op: OpMul, L: &ColRef{Idx: 2}, R: &Lit{V: table.FloatValue(2)}},
		},
		[]string{"id", "double_total"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.Cols[1].Type != table.Float {
		t.Fatalf("double_total type = %s", got.Schema.Cols[1].Type)
	}
	if got.Cols[1].Floats[0] != 199 {
		t.Fatalf("double_total[0] = %v", got.Cols[1].Floats[0])
	}
}

func TestProjectTypeErrorAtPlanTime(t *testing.T) {
	orders := ordersTable(t)
	_, err := NewProject(scanOf(t, orders, "orders"),
		[]Expr{&Bin{Op: OpAdd, L: &ColRef{Idx: 3}, R: &Lit{V: table.IntValue(1)}}},
		[]string{"bad"})
	if err == nil {
		t.Fatal("string arithmetic accepted at plan time")
	}
}

func TestHashJoinInner(t *testing.T) {
	orders, cust := ordersTable(t), custTable(t)
	ctx := fixedResolver(map[string]*table.Table{"orders": orders, "cust": cust})
	j := &HashJoin{
		Left: scanOf(t, orders, "orders"), Right: scanOf(t, cust, "cust"),
		LeftKeys: []int{1}, RightKeys: []int{0},
	}
	got, err := j.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Customers 10 (2 orders) and 11 (1 order) match; 12 has no customer
	// row, 13 has no orders.
	if got.NumRows() != 3 {
		t.Fatalf("join rows = %d, want 3", got.NumRows())
	}
	if got.Schema.NumCols() != 6 {
		t.Fatalf("join cols = %d, want 6", got.Schema.NumCols())
	}
}

func TestHashJoinEmptyKeyListRejected(t *testing.T) {
	orders := ordersTable(t)
	ctx := fixedResolver(map[string]*table.Table{"orders": orders})
	j := &HashJoin{Left: scanOf(t, orders, "orders"), Right: scanOf(t, orders, "orders")}
	if _, err := j.Run(ctx); err == nil {
		t.Fatal("empty key join accepted")
	}
}

// nested-loop reference join for the property test.
func nestedLoopJoin(l, r *table.Table, lk, rk []int) [][2]int {
	var out [][2]int
	for i := 0; i < l.NumRows(); i++ {
		for j := 0; j < r.NumRows(); j++ {
			match := true
			for k := range lk {
				c, err := l.Cols[lk[k]].Value(i).Compare(r.Cols[rk[k]].Value(j))
				if err != nil || c != 0 {
					match = false
					break
				}
			}
			if match {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

func TestHashJoinMatchesNestedLoopProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(n int) *table.Table {
			tb := table.New(table.NewSchema(
				table.Column{Name: "k", Type: table.Int},
				table.Column{Name: "v", Type: table.Str},
			))
			for i := 0; i < n; i++ {
				_ = tb.AppendRow(table.IntValue(rng.Int63n(8)), table.StrValue(strings.Repeat("x", rng.Intn(3))))
			}
			return tb
		}
		l, r := mk(rng.Intn(30)), mk(rng.Intn(30))
		ctx := fixedResolver(map[string]*table.Table{"l": l, "r": r})
		j := &HashJoin{
			Left:     &Scan{Name: "l", Sch: l.Schema},
			Right:    &Scan{Name: "r", Sch: r.Schema},
			LeftKeys: []int{0}, RightKeys: []int{0},
		}
		got, err := j.Run(ctx)
		if err != nil {
			return false
		}
		want := nestedLoopJoin(l, r, []int{0}, []int{0})
		if got.NumRows() != len(want) {
			return false
		}
		// Hash join preserves left-major order with our build/probe.
		for i, pair := range want {
			if got.Cols[0].Ints[i] != l.Cols[0].Ints[pair[0]] {
				return false
			}
			if got.Cols[2].Ints[i] != r.Cols[0].Ints[pair[1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateGroupBy(t *testing.T) {
	orders := ordersTable(t)
	ctx := fixedResolver(map[string]*table.Table{"orders": orders})
	agg, err := NewAggregate(scanOf(t, orders, "orders"),
		[]int{1}, // group by o_cust
		[]AggSpec{
			{Func: AggCount, Name: "n"},
			{Func: AggSum, Arg: &ColRef{Idx: 2}, Name: "total"},
			{Func: AggMax, Arg: &ColRef{Idx: 2}, Name: "biggest"},
		})
	if err != nil {
		t.Fatal(err)
	}
	got, err := agg.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 {
		t.Fatalf("groups = %d, want 3", got.NumRows())
	}
	// First group in input order is customer 10: count 2, sum 119.5.
	if got.Cols[0].Ints[0] != 10 || got.Cols[1].Ints[0] != 2 || got.Cols[2].Floats[0] != 119.5 {
		t.Fatalf("group row = %v", got.Row(0))
	}
	if got.Cols[3].Floats[0] != 99.5 {
		t.Fatalf("max = %v", got.Cols[3].Floats[0])
	}
}

func TestAggregateGlobalEmptyInput(t *testing.T) {
	empty := table.New(table.NewSchema(table.Column{Name: "x", Type: table.Int}))
	ctx := fixedResolver(map[string]*table.Table{"e": empty})
	agg, err := NewAggregate(&Scan{Name: "e", Sch: empty.Schema}, nil,
		[]AggSpec{{Func: AggCount, Name: "n"}, {Func: AggSum, Arg: &ColRef{Idx: 0}, Name: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := agg.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 1 || got.Cols[0].Ints[0] != 0 {
		t.Fatalf("global agg over empty: %v", got.Row(0))
	}
}

func TestAggregateMatchesNaiveSumProperty(t *testing.T) {
	f := func(vals []int8) bool {
		tb := table.New(table.NewSchema(
			table.Column{Name: "g", Type: table.Int},
			table.Column{Name: "v", Type: table.Int},
		))
		want := map[int64]int64{}
		for i, v := range vals {
			g := int64(i % 3)
			_ = tb.AppendRow(table.IntValue(g), table.IntValue(int64(v)))
			want[g] += int64(v)
		}
		ctx := fixedResolver(map[string]*table.Table{"t": tb})
		agg, err := NewAggregate(&Scan{Name: "t", Sch: tb.Schema}, []int{0},
			[]AggSpec{{Func: AggSum, Arg: &ColRef{Idx: 1}, Name: "s"}})
		if err != nil {
			return false
		}
		got, err := agg.Run(ctx)
		if err != nil {
			return false
		}
		if got.NumRows() != len(want) {
			return false
		}
		for i := 0; i < got.NumRows(); i++ {
			if got.Cols[1].Ints[i] != want[got.Cols[0].Ints[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortAscDescStable(t *testing.T) {
	orders := ordersTable(t)
	ctx := fixedResolver(map[string]*table.Table{"orders": orders})
	s := &Sort{Input: scanOf(t, orders, "orders"), Keys: []SortKey{{Col: 1, Desc: false}, {Col: 2, Desc: true}}}
	got, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	custs := got.Cols[1].Ints
	for i := 1; i < len(custs); i++ {
		if custs[i-1] > custs[i] {
			t.Fatalf("not sorted by cust: %v", custs)
		}
	}
	// Within customer 10: totals descending 99.5 then 20.
	if got.Cols[2].Floats[0] != 99.5 || got.Cols[2].Floats[1] != 20 {
		t.Fatalf("secondary sort wrong: %v", got.Cols[2].Floats)
	}
}

func TestLimit(t *testing.T) {
	orders := ordersTable(t)
	ctx := fixedResolver(map[string]*table.Table{"orders": orders})
	got, err := (&Limit{Input: scanOf(t, orders, "orders"), N: 2}).Run(ctx)
	if err != nil || got.NumRows() != 2 {
		t.Fatalf("limit: %d rows, %v", got.NumRows(), err)
	}
	got, err = (&Limit{Input: scanOf(t, orders, "orders"), N: 100}).Run(ctx)
	if err != nil || got.NumRows() != 5 {
		t.Fatalf("limit over-count: %d rows, %v", got.NumRows(), err)
	}
}

func TestExprShortCircuit(t *testing.T) {
	// (0 AND (1/0)) must not evaluate the division.
	e := &Bin{Op: OpAnd,
		L: &Lit{V: table.IntValue(0)},
		R: &Bin{Op: OpDiv, L: &Lit{V: table.IntValue(1)}, R: &Lit{V: table.IntValue(0)}},
	}
	v, err := e.Eval(nil)
	if err != nil || v.I != 0 {
		t.Fatalf("AND short-circuit: %v, %v", v, err)
	}
	e2 := &Bin{Op: OpOr,
		L: &Lit{V: table.IntValue(1)},
		R: &Bin{Op: OpDiv, L: &Lit{V: table.IntValue(1)}, R: &Lit{V: table.IntValue(0)}},
	}
	v, err = e2.Eval(nil)
	if err != nil || v.I != 1 {
		t.Fatalf("OR short-circuit: %v, %v", v, err)
	}
}

func TestExprErrors(t *testing.T) {
	div := &Bin{Op: OpDiv, L: &Lit{V: table.IntValue(1)}, R: &Lit{V: table.IntValue(0)}}
	if _, err := div.Eval(nil); err == nil {
		t.Fatal("division by zero accepted")
	}
	mod := &Bin{Op: OpMod, L: &Lit{V: table.IntValue(1)}, R: &Lit{V: table.IntValue(0)}}
	if _, err := mod.Eval(nil); err == nil {
		t.Fatal("modulo by zero accepted")
	}
	badCmp := &Bin{Op: OpLt, L: &Lit{V: table.StrValue("a")}, R: &Lit{V: table.IntValue(1)}}
	if _, err := badCmp.Eval(nil); err == nil {
		t.Fatal("string<int comparison accepted")
	}
}

func TestInListAndNot(t *testing.T) {
	in := &InList{E: &Lit{V: table.IntValue(2)}, List: []table.Value{table.IntValue(1), table.IntValue(2)}}
	v, err := in.Eval(nil)
	if err != nil || v.I != 1 {
		t.Fatalf("IN: %v, %v", v, err)
	}
	n := &Not{E: in}
	v, err = n.Eval(nil)
	if err != nil || v.I != 0 {
		t.Fatalf("NOT IN: %v, %v", v, err)
	}
}

func TestIntArithmeticStaysInt(t *testing.T) {
	e := &Bin{Op: OpAdd, L: &Lit{V: table.IntValue(2)}, R: &Lit{V: table.IntValue(3)}}
	v, err := e.Eval(nil)
	if err != nil || v.Type != table.Int || v.I != 5 {
		t.Fatalf("2+3 = %v (%v)", v, err)
	}
	// Division always yields float.
	d := &Bin{Op: OpDiv, L: &Lit{V: table.IntValue(5)}, R: &Lit{V: table.IntValue(2)}}
	v, err = d.Eval(nil)
	if err != nil || v.Type != table.Float || v.F != 2.5 {
		t.Fatalf("5/2 = %v (%v)", v, err)
	}
}

// Sort must output a permutation of its input, ordered by the key.
func TestSortPermutationProperty(t *testing.T) {
	f := func(vals []int16) bool {
		tb := table.New(table.NewSchema(table.Column{Name: "v", Type: table.Int}))
		sum := int64(0)
		for _, v := range vals {
			_ = tb.AppendRow(table.IntValue(int64(v)))
			sum += int64(v)
		}
		ctx := fixedResolver(map[string]*table.Table{"t": tb})
		got, err := (&Sort{Input: &Scan{Name: "t", Sch: tb.Schema}, Keys: []SortKey{{Col: 0}}}).Run(ctx)
		if err != nil || got.NumRows() != len(vals) {
			return false
		}
		var gotSum int64
		for i, v := range got.Cols[0].Ints {
			gotSum += v
			if i > 0 && got.Cols[0].Ints[i-1] > v {
				return false
			}
		}
		return gotSum == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Filter(pred) and Filter(NOT pred) must partition the input exactly.
func TestFilterPartitionProperty(t *testing.T) {
	f := func(vals []int8, threshold int8) bool {
		tb := table.New(table.NewSchema(table.Column{Name: "v", Type: table.Int}))
		for _, v := range vals {
			_ = tb.AppendRow(table.IntValue(int64(v)))
		}
		ctx := fixedResolver(map[string]*table.Table{"t": tb})
		pred := &Bin{Op: OpGt, L: &ColRef{Idx: 0}, R: &Lit{V: table.IntValue(int64(threshold))}}
		pos, err := (&Filter{Input: &Scan{Name: "t", Sch: tb.Schema}, Pred: pred}).Run(ctx)
		if err != nil {
			return false
		}
		neg, err := (&Filter{Input: &Scan{Name: "t", Sch: tb.Schema}, Pred: &Not{E: pred}}).Run(ctx)
		if err != nil {
			return false
		}
		return pos.NumRows()+neg.NumRows() == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// AVG must equal SUM/COUNT per group.
func TestAggregateAvgConsistencyProperty(t *testing.T) {
	f := func(vals []int8) bool {
		tb := table.New(table.NewSchema(
			table.Column{Name: "g", Type: table.Int},
			table.Column{Name: "v", Type: table.Float},
		))
		for i, v := range vals {
			_ = tb.AppendRow(table.IntValue(int64(i%4)), table.FloatValue(float64(v)))
		}
		ctx := fixedResolver(map[string]*table.Table{"t": tb})
		agg, err := NewAggregate(&Scan{Name: "t", Sch: tb.Schema}, []int{0}, []AggSpec{
			{Func: AggSum, Arg: &ColRef{Idx: 1}, Name: "s"},
			{Func: AggCount, Name: "n"},
			{Func: AggAvg, Arg: &ColRef{Idx: 1}, Name: "a"},
		})
		if err != nil {
			return false
		}
		got, err := agg.Run(ctx)
		if err != nil {
			return false
		}
		for i := 0; i < got.NumRows(); i++ {
			s := got.Cols[1].Floats[i]
			n := got.Cols[2].Ints[i]
			a := got.Cols[3].Floats[i]
			if n == 0 {
				return false
			}
			if diff := a - s/float64(n); diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// MIN and MAX bracket every input value of the group.
func TestAggregateMinMaxBracketProperty(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		tb := table.New(table.NewSchema(table.Column{Name: "v", Type: table.Int}))
		lo, hi := int64(vals[0]), int64(vals[0])
		for _, v := range vals {
			_ = tb.AppendRow(table.IntValue(int64(v)))
			if int64(v) < lo {
				lo = int64(v)
			}
			if int64(v) > hi {
				hi = int64(v)
			}
		}
		ctx := fixedResolver(map[string]*table.Table{"t": tb})
		agg, err := NewAggregate(&Scan{Name: "t", Sch: tb.Schema}, nil, []AggSpec{
			{Func: AggMin, Arg: &ColRef{Idx: 0}, Name: "lo"},
			{Func: AggMax, Arg: &ColRef{Idx: 0}, Name: "hi"},
		})
		if err != nil {
			return false
		}
		got, err := agg.Run(ctx)
		if err != nil || got.NumRows() != 1 {
			return false
		}
		return got.Cols[0].Ints[0] == lo && got.Cols[1].Ints[0] == hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
