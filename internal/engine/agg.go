package engine

import (
	"fmt"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

// --- Aggregate ---

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota // COUNT(*) when Arg is nil
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = map[AggFunc]string{
	AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX",
}

// AggSpec is one aggregate output column.
type AggSpec struct {
	Func AggFunc
	Arg  Expr // nil only for COUNT(*)
	Name string
}

// Aggregate is a hash aggregation: group by the given input column indices
// and compute each AggSpec per group. Output columns are the group-by
// columns followed by the aggregates. With no group-by columns it produces
// exactly one row (global aggregation). Run hands its input's columns to
// one AggAcc: no input row is ever boxed into values.
type Aggregate struct {
	Input   Node
	GroupBy []int
	Aggs    []AggSpec
	sch     table.Schema
	args    []*colExpr // Aggs[i].Arg compiled; nil for COUNT(*)
	slots   int        // scratch vectors the compiled arguments use
}

// NewAggregate builds an aggregation, validating argument types eagerly
// and compiling each argument for column-at-a-time evaluation.
func NewAggregate(input Node, groupBy []int, aggs []AggSpec) (*Aggregate, error) {
	inSch := input.Schema()
	a := &Aggregate{Input: input, GroupBy: groupBy, Aggs: aggs, args: make([]*colExpr, len(aggs))}
	for _, g := range groupBy {
		if g < 0 || g >= inSch.NumCols() {
			return nil, fmt.Errorf("engine: group-by column %d out of range", g)
		}
		a.sch.Cols = append(a.sch.Cols, inSch.Cols[g])
	}
	for i, spec := range aggs {
		t := table.Int // COUNT
		if spec.Arg == nil && spec.Func != AggCount {
			return nil, fmt.Errorf("engine: %s requires an argument", aggNames[spec.Func])
		}
		if spec.Arg != nil {
			arg, err := compileArg(spec.Arg, inSch, &a.slots)
			if err != nil {
				return nil, fmt.Errorf("engine: agg %q: %w", spec.Name, err)
			}
			a.args[i] = arg
			switch spec.Func {
			case AggSum, AggAvg:
				if arg.typ == table.Str {
					return nil, fmt.Errorf("engine: %s over STRING", aggNames[spec.Func])
				}
				t = arg.typ
				if spec.Func == AggAvg {
					t = table.Float
				}
			case AggMin, AggMax:
				t = arg.typ
			}
		}
		a.sch.Cols = append(a.sch.Cols, table.Column{Name: spec.Name, Type: t})
	}
	return a, nil
}

// Schema implements Node.
func (a *Aggregate) Schema() table.Schema { return a.sch }

// Run implements Node.
func (a *Aggregate) Run(ctx *Context) (*table.Table, error) {
	in, err := a.Input.Run(ctx)
	if err != nil {
		return nil, err
	}
	acc := a.NewAcc()
	if err := acc.AddCols(in.NumRows(), in.Cols); err != nil {
		return nil, err
	}
	return acc.Result()
}

// String implements Node.
func (a *Aggregate) String() string {
	return fmt.Sprintf("Aggregate(groups=%v, aggs=%d)", a.GroupBy, len(a.Aggs))
}

// AggAcc accumulates input columns into an Aggregate's groups. It is the
// one accumulator of both engine paths: Aggregate.Run hands it its input
// table's columns, and the compressed-execution kernels (internal/kernels)
// hand it each row group's columns, so grouping, accumulation order and
// output ordering are shared by construction — feeding the same rows in
// the same order produces a byte-identical result table, however the rows
// are split into AddCols calls.
type AggAcc struct {
	a *Aggregate

	// The group table, one of two by key shape: a single INT or STRING key
	// interned into a KeyDict, whose ids are the group ids, or appendKey
	// bytes of every key column (FLOAT and multi-column keys).
	kd   *encoding.KeyDict
	keys map[string]int32
	key  []byte // reused appendKey buffer

	keyCols []*table.Vector // group-by values, one entry per group in first-appearance order
	counts  []int64         // rows per group
	states  []aggCol        // per aggregate

	// Per-batch scratch.
	gids    []int32
	views   []table.Vector
	viewPtr []*table.Vector
	vals    []*table.Vector
	scratch []table.Vector
	row     []table.Value
}

// aggCol is one aggregate's state, indexed by group id.
type aggCol struct {
	sumF []float64
	sumI []int64
	// ext holds MIN or MAX: a group's entry is seeded by its first row, so
	// groups below len(ext) have one and the rest (only the global group
	// over empty input) answer zero.
	ext table.Vector
}

// batchRows bounds one accumulation pass, keeping the per-batch scratch
// (group ids, evaluated arguments) small and cache-resident whatever the
// caller hands over.
const batchRows = 1024

// NewAcc returns an empty accumulator for the aggregate.
func (a *Aggregate) NewAcc() *AggAcc {
	acc := &AggAcc{
		a:       a,
		keyCols: make([]*table.Vector, len(a.GroupBy)),
		states:  make([]aggCol, len(a.Aggs)),
		vals:    make([]*table.Vector, len(a.Aggs)),
		scratch: make([]table.Vector, a.slots),
	}
	for gi := range a.GroupBy {
		acc.keyCols[gi] = &table.Vector{Type: a.sch.Cols[gi].Type}
	}
	for k, spec := range a.Aggs {
		if spec.Func == AggMin || spec.Func == AggMax {
			acc.states[k].ext.Type = a.args[k].typ
		}
	}
	if len(a.GroupBy) == 1 && a.sch.Cols[0].Type != table.Float {
		acc.kd = encoding.NewKeyDict(a.sch.Cols[0].Type)
	} else {
		acc.keys = make(map[string]int32)
	}
	return acc
}

// AddCols folds rows [0, n) of a batch of input columns into the
// accumulator, in row order. cols is indexed like the aggregate's input
// schema; a column the aggregate does not read may be nil. It reports the
// error a row-at-a-time loop would meet first: the earliest failing row's,
// and within that row the first failing aggregate's. After an error the
// accumulator must be discarded.
func (acc *AggAcc) AddCols(n int, cols []*table.Vector) error {
	if len(acc.views) != len(cols) {
		acc.views = make([]table.Vector, len(cols))
		acc.viewPtr = make([]*table.Vector, len(cols))
		acc.row = make([]table.Value, len(cols))
	}
	for lo := 0; lo < n; lo += batchRows {
		hi := min(lo+batchRows, n)
		for c, v := range cols {
			acc.viewPtr[c] = nil
			if v != nil {
				acc.views[c] = v.Slice(lo, hi)
				acc.viewPtr[c] = &acc.views[c]
			}
		}
		if err := acc.addBatch(hi-lo, acc.viewPtr); err != nil {
			return err
		}
	}
	return nil
}

// addBatch folds one batch of at most batchRows rows: it evaluates every
// argument first, so a failing batch changes no state, then assigns group
// ids and accumulates each aggregate over the batch in row order.
func (acc *AggAcc) addBatch(n int, cols []*table.Vector) error {
	a := acc.a
	limit := n
	var err error
	for k, arg := range a.args {
		if arg == nil {
			continue
		}
		// Rows at and after an earlier aggregate's failure need no value:
		// that failure is reported unless this argument fails sooner.
		v, fail, aerr := arg.eval(acc, cols, limit)
		if fail < limit {
			limit, err = fail, fmt.Errorf("engine: agg %q: %w", a.Aggs[k].Name, aerr)
		}
		acc.vals[k] = v
	}
	if err != nil {
		return err
	}
	gids := acc.groupIDs(n, cols)
	ng := len(acc.counts)
	for k, spec := range a.Aggs {
		st, v := &acc.states[k], acc.vals[k]
		switch spec.Func {
		case AggSum, AggAvg:
			if v.Type == table.Float {
				st.sumF = extend(st.sumF, ng)
				sumF, xs := st.sumF, v.Floats[:n]
				for i, g := range gids {
					sumF[g] += xs[i]
				}
			} else if spec.Func == AggAvg {
				st.sumF = extend(st.sumF, ng)
				sumF, xs := st.sumF, v.Ints[:n]
				for i, g := range gids {
					sumF[g] += float64(xs[i])
				}
			} else {
				st.sumI = extend(st.sumI, ng)
				sumI, xs := st.sumI, v.Ints[:n]
				for i, g := range gids {
					sumI[g] += xs[i]
				}
			}
		case AggMin, AggMax:
			isMin := spec.Func == AggMin
			switch v.Type {
			case table.Int:
				st.ext.Ints = foldExtInts(st.ext.Ints, v.Ints[:n], gids, isMin)
			case table.Float:
				st.ext.Floats = foldExt(st.ext.Floats, v.Floats[:n], gids, isMin)
			default:
				st.ext.Strs = foldExt(st.ext.Strs, v.Strs[:n], gids, isMin)
			}
		}
	}
	return nil
}

// foldExt folds values into per-group minima or maxima. A group's first
// value seeds it; later values replace it only when strictly smaller
// (larger), so NaN never replaces and never is replaced, and -0.0 versus
// 0.0 keeps the first seen — Value.Compare's answers.
func foldExt[T float64 | string](ext, xs []T, gids []int32, isMin bool) []T {
	for i, g := range gids {
		x := xs[i]
		switch {
		case int(g) == len(ext):
			ext = append(ext, x)
		case isMin && x < ext[g], !isMin && x > ext[g]:
			ext[g] = x
		}
	}
	return ext
}

// foldExtInts is foldExt for INT values, compared as float64 the way
// Value.Compare compares numbers: beyond 2^53 two distinct values may tie,
// and a tie keeps the first seen.
func foldExtInts(ext, xs []int64, gids []int32, isMin bool) []int64 {
	for i, g := range gids {
		x := xs[i]
		switch {
		case int(g) == len(ext):
			ext = append(ext, x)
		case isMin && float64(x) < float64(ext[g]), !isMin && float64(x) > float64(ext[g]):
			ext[g] = x
		}
	}
	return ext
}

// groupIDs assigns each row of the batch its group id, creating groups in
// first-appearance order, and counts the rows per group.
func (acc *AggAcc) groupIDs(n int, cols []*table.Vector) []int32 {
	gids := extend(acc.gids[:0], n)
	acc.gids = gids
	gb := acc.a.GroupBy
	switch {
	case len(gb) == 0:
		if len(acc.counts) == 0 && n > 0 {
			acc.newGroup(cols, 0)
		}
	case acc.kd != nil:
		// Key ids are group ids: both are dense in first-appearance order,
		// so a row whose id is the next group's is its key's first.
		gids = acc.kd.IDs(cols[gb[0]], true, gids[:0])
		acc.gids = gids
		for i, g := range gids {
			if int(g) == len(acc.counts) {
				acc.newGroup(cols, i)
			}
		}
	default:
		for i := 0; i < n; i++ {
			acc.key = acc.key[:0]
			for _, c := range gb {
				acc.key = appendKey(acc.key, cols[c].Value(i))
			}
			// The lookup converts the buffer without allocating; a string
			// key is only materialized once per distinct group.
			g, ok := acc.keys[string(acc.key)]
			if !ok {
				g = acc.newGroup(cols, i)
				acc.keys[string(acc.key)] = g
			}
			gids[i] = g
		}
	}
	counts := acc.counts
	for _, g := range gids {
		counts[g]++
	}
	return gids
}

// newGroup creates a group keyed by row i's group-by values and returns
// its id.
func (acc *AggAcc) newGroup(cols []*table.Vector, i int) int32 {
	for gi, c := range acc.a.GroupBy {
		acc.keyCols[gi].AppendAt(cols[c], i)
	}
	acc.counts = append(acc.counts, 0)
	return int32(len(acc.counts) - 1)
}

// Result builds the output table: group keys in first-appearance order,
// and for a global aggregation over empty input the single row of zeros.
func (acc *AggAcc) Result() (*table.Table, error) {
	a := acc.a
	if len(a.GroupBy) == 0 && len(acc.counts) == 0 {
		acc.counts = append(acc.counts, 0)
	}
	ng := len(acc.counts)
	out := &table.Table{Schema: a.sch}
	out.Cols = append(out.Cols, acc.keyCols...)
	for k, spec := range a.Aggs {
		st := &acc.states[k]
		col := &table.Vector{Type: a.sch.Cols[len(a.GroupBy)+k].Type}
		switch spec.Func {
		case AggCount:
			col.Ints = append(col.Ints, acc.counts...)
		case AggSum:
			if col.Type == table.Int {
				col.Ints = extend(st.sumI, ng)
			} else {
				col.Floats = extend(st.sumF, ng)
			}
		case AggAvg:
			sums := extend(st.sumF, ng)
			for g, c := range acc.counts {
				avg := 0.0
				if c != 0 {
					avg = sums[g] / float64(c)
				}
				col.Floats = append(col.Floats, avg)
			}
		case AggMin, AggMax:
			switch col.Type {
			case table.Int:
				col.Ints = extend(st.ext.Ints, ng)
			case table.Float:
				col.Floats = extend(st.ext.Floats, ng)
			default:
				col.Strs = extend(st.ext.Strs, ng)
			}
		}
		out.Cols = append(out.Cols, col)
	}
	return out, nil
}

// extend grows s with zero values to length n.
func extend[T any](s []T, n int) []T {
	if n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// --- column-at-a-time argument evaluation ---

// colExpr is an aggregate argument compiled for column-at-a-time
// evaluation: a column reference reads the batch's column as is, a literal
// and + − × ÷ % fill typed scratch vectors, and every other expression is
// evaluated row by row through Eval. A compiled tree is immutable; its
// scratch vectors live on the AggAcc, at the nodes' slot indexes.
type colExpr struct {
	typ  table.Type // static result type
	col  int        // column reference when ≥ 0
	lit  *table.Value
	op   BinOp
	l, r *colExpr // arithmetic operands
	row  Expr     // evaluated per row when non-nil
	slot int      // this node's result scratch; arithmetic also uses slot+1
}

// compileArg compiles e over the input schema, numbering the scratch
// slots it needs from *slots.
func compileArg(e Expr, sch table.Schema, slots *int) (*colExpr, error) {
	t, err := e.Type(sch)
	if err != nil {
		return nil, err
	}
	c := &colExpr{typ: t, col: -1, slot: *slots}
	switch v := e.(type) {
	case *ColRef:
		c.col = v.Idx
		return c, nil
	case *Lit:
		c.lit = &v.V
		*slots++
		return c, nil
	case *Bin:
		if !v.Op.IsComparison() && !v.Op.IsLogical() {
			c.op = v.Op
			*slots += 2
			if c.l, err = compileArg(v.L, sch, slots); err != nil {
				return nil, err
			}
			if c.r, err = compileArg(v.R, sch, slots); err != nil {
				return nil, err
			}
			return c, nil
		}
	}
	c.row = e
	*slots++
	return c, nil
}

// eval computes rows [0, n) of the batch. It returns the result vector,
// the first row whose evaluation fails (n when none does) and that row's
// error — the error Eval would return on that row. Values at and after the
// failing row are undefined.
func (c *colExpr) eval(acc *AggAcc, cols []*table.Vector, n int) (*table.Vector, int, error) {
	switch {
	case c.col >= 0:
		return cols[c.col], n, nil
	case c.lit != nil:
		out := &acc.scratch[c.slot]
		if out.Len() < n { // the literal is filled once, reused by later batches
			*out = table.Vector{Type: c.typ}
			for i := 0; i < batchRows; i++ {
				_ = out.Append(*c.lit)
			}
		}
		return out, n, nil
	case c.row != nil:
		return c.evalRows(acc, cols, n)
	}
	l, lf, lerr := c.l.eval(acc, cols, n)
	r, rf, rerr := c.r.eval(acc, cols, n)
	// Eval evaluates L before R: at a row both fail on, L's error wins.
	fail, err := lf, lerr
	if rf < lf {
		fail, err = rf, rerr
	}
	out := &acc.scratch[c.slot]
	if f, aerr := arith(c.op, l, r, fail, out, &acc.scratch[c.slot+1]); f < fail {
		fail, err = f, aerr
	}
	return out, fail, err
}

// evalRows is the per-row adapter: it boxes each row of the batch's
// columns, calls Eval and stores the value as the expression's static type.
func (c *colExpr) evalRows(acc *AggAcc, cols []*table.Vector, n int) (*table.Vector, int, error) {
	out := &acc.scratch[c.slot]
	out.Type = c.typ
	out.Reset()
	row := acc.row
	for i := 0; i < n; i++ {
		for k, v := range cols {
			if v != nil {
				row[k] = v.Value(i)
			}
		}
		v, err := c.row.Eval(row)
		if err != nil {
			return out, i, err
		}
		switch c.typ {
		case table.Int:
			out.Ints = append(out.Ints, v.I)
		case table.Float:
			out.Floats = append(out.Floats, v.AsFloat())
		default:
			out.Strs = append(out.Strs, v.S)
		}
	}
	return out, n, nil
}

// arith computes rows [0, n) of l op r into out with evalArith's semantics
// — INT stays INT except under ÷, anything else computes in FLOAT — using
// tmp to widen an INT right operand. It returns the first row that fails
// (n when none does) and that row's error.
func arith(op BinOp, l, r *table.Vector, n int, out, tmp *table.Vector) (int, error) {
	if l.Type == table.Int && r.Type == table.Int && op != OpDiv {
		out.Type = table.Int
		out.Ints = extend(out.Ints[:0], n)
		a, b, dst := l.Ints[:n], r.Ints[:n], out.Ints
		if op != OpMod {
			combine(op, dst, a, b)
			return n, nil
		}
		for i := range dst {
			if b[i] == 0 {
				return i, fmt.Errorf("engine: modulo by zero")
			}
			dst[i] = a[i] % b[i]
		}
		return n, nil
	}
	out.Type = table.Float
	if op == OpMod {
		if n > 0 {
			return 0, fmt.Errorf("engine: modulo on FLOAT")
		}
		return n, nil
	}
	out.Floats = extend(out.Floats[:0], n)
	a := floatsOf(l, n, out) // an INT l widens into dst, which each row then overwrites in place
	b := floatsOf(r, n, tmp)
	dst := out.Floats
	if op != OpDiv {
		combine(op, dst, a, b)
		return n, nil
	}
	for i := range dst {
		if b[i] == 0 {
			return i, fmt.Errorf("engine: division by zero")
		}
		dst[i] = a[i] / b[i]
	}
	return n, nil
}

// combine computes dst[i] = a[i] op b[i] for op + − ×, which cannot fail.
func combine[T int64 | float64](op BinOp, dst, a, b []T) {
	switch op {
	case OpAdd:
		for i := range dst {
			dst[i] = a[i] + b[i]
		}
	case OpSub:
		for i := range dst {
			dst[i] = a[i] - b[i]
		}
	default: // OpMul
		for i := range dst {
			dst[i] = a[i] * b[i]
		}
	}
}

// floatsOf returns rows [0, n) of a numeric vector as float64, widening an
// INT vector into buf's Floats.
func floatsOf(v *table.Vector, n int, buf *table.Vector) []float64 {
	if v.Type == table.Float {
		return v.Floats[:n]
	}
	f := extend(buf.Floats[:0], n)
	for i, x := range v.Ints[:n] {
		f[i] = float64(x)
	}
	buf.Floats = f
	return f
}
