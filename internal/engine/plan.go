package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/sched"
	"github.com/shortcircuit-db/sc/internal/table"
)

// Context supplies table resolution during execution. The controller wires
// Resolve to check the Memory Catalog first and fall back to external
// storage, which is where S/C's read short-circuiting happens. Execution
// through a Context is serial: the one form of parallelism is the exec
// Controller's k concurrent nodes.
type Context struct {
	Resolve func(name string) (*table.Table, error)
	// ResolveCompressed, when non-nil, resolves a table in compressed
	// chunked form without decoding any chunk: compressed Memory Catalog
	// entries are returned as-is and chunked storage files are parsed
	// lazily. Kernel-backed operators (internal/kernels) use it to decode
	// per chunk instead of per table; (nil, nil) means the table is not
	// available in chunked form and the caller should fall back to Resolve.
	ResolveCompressed func(name string) (*encoding.Compressed, error)
	// Sched is read by nothing: a node runs on its one token, and the
	// kernels walk a node's chunks serially.
	//
	// Deprecated: nothing reads it.
	Sched *sched.Scheduler
	// ParallelScan is read by nothing.
	//
	// Deprecated: nothing reads it.
	ParallelScan bool
}

// Node is an executable plan operator.
type Node interface {
	// Schema returns the operator's output schema.
	Schema() table.Schema
	// Run executes the operator and returns its full result.
	Run(ctx *Context) (*table.Table, error)
	// String renders a one-line description for plan display.
	String() string
}

// --- Scan ---

// Scan reads a named table. The expected schema is fixed at plan time; at
// run time the resolved table must match.
type Scan struct {
	Name string
	Sch  table.Schema
}

// Schema implements Node.
func (s *Scan) Schema() table.Schema { return s.Sch }

// Run implements Node.
func (s *Scan) Run(ctx *Context) (*table.Table, error) {
	if ctx == nil || ctx.Resolve == nil {
		return nil, fmt.Errorf("engine: no resolver for scan of %q", s.Name)
	}
	t, err := ctx.Resolve(s.Name)
	if err != nil {
		return nil, fmt.Errorf("engine: scan %q: %w", s.Name, err)
	}
	if !t.Schema.Equal(s.Sch) {
		return nil, fmt.Errorf("engine: scan %q: schema %s, expected %s", s.Name, t.Schema, s.Sch)
	}
	return t, nil
}

// String implements Node.
func (s *Scan) String() string { return fmt.Sprintf("Scan(%s)", s.Name) }

// --- Filter ---

// Filter keeps rows where Pred is truthy.
type Filter struct {
	Input Node
	Pred  Expr
}

// NewFilter builds a filter, typing the predicate against the input's
// schema so type errors surface at plan time, not on the first row.
func NewFilter(input Node, pred Expr) (*Filter, error) {
	if _, err := pred.Type(input.Schema()); err != nil {
		return nil, fmt.Errorf("engine: filter: %w", err)
	}
	return &Filter{Input: input, Pred: pred}, nil
}

// Schema implements Node.
func (f *Filter) Schema() table.Schema { return f.Input.Schema() }

// Run implements Node.
func (f *Filter) Run(ctx *Context) (*table.Table, error) {
	in, err := f.Input.Run(ctx)
	if err != nil {
		return nil, err
	}
	var idx []int
	row := make([]table.Value, len(in.Cols))
	for i := 0; i < in.NumRows(); i++ {
		fillRow(in, i, row)
		v, err := f.Pred.Eval(row)
		if err != nil {
			return nil, fmt.Errorf("engine: filter: %w", err)
		}
		if truthy(v) {
			idx = append(idx, i)
		}
	}
	return in.Gather(idx), nil
}

// String implements Node.
func (f *Filter) String() string { return fmt.Sprintf("Filter(%s)", f.Pred) }

// --- Project ---

// Project computes one output column per expression.
type Project struct {
	Input Node
	Exprs []Expr
	Names []string
	sch   table.Schema
}

// NewProject builds a projection, computing the output schema eagerly so
// type errors surface at plan time.
func NewProject(input Node, exprs []Expr, names []string) (*Project, error) {
	if len(exprs) != len(names) {
		return nil, fmt.Errorf("engine: %d exprs, %d names", len(exprs), len(names))
	}
	inSch := input.Schema()
	p := &Project{Input: input, Exprs: exprs, Names: names}
	for i, e := range exprs {
		t, err := e.Type(inSch)
		if err != nil {
			return nil, fmt.Errorf("engine: project %q: %w", names[i], err)
		}
		p.sch.Cols = append(p.sch.Cols, table.Column{Name: names[i], Type: t})
	}
	return p, nil
}

// Schema implements Node.
func (p *Project) Schema() table.Schema { return p.sch }

// Run implements Node.
func (p *Project) Run(ctx *Context) (*table.Table, error) {
	in, err := p.Input.Run(ctx)
	if err != nil {
		return nil, err
	}
	out := table.New(p.sch)
	row := make([]table.Value, len(in.Cols))
	vals := make([]table.Value, len(p.Exprs))
	for i := 0; i < in.NumRows(); i++ {
		fillRow(in, i, row)
		for c, e := range p.Exprs {
			v, err := e.Eval(row)
			if err != nil {
				return nil, fmt.Errorf("engine: project %q: %w", p.Names[c], err)
			}
			vals[c] = coerce(v, p.sch.Cols[c].Type)
		}
		if err := out.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// String implements Node.
func (p *Project) String() string { return fmt.Sprintf("Project(%d cols)", len(p.Exprs)) }

// coerce widens INT to FLOAT when the planned type demands it (mixed
// arithmetic can produce either at runtime).
func coerce(v table.Value, want table.Type) table.Value {
	if v.Type == table.Int && want == table.Float {
		return table.FloatValue(float64(v.I))
	}
	return v
}

// --- HashJoin ---

// HashJoin is an inner equi-join: build a hash table on the right input,
// probe with the left. Output columns are left columns followed by right
// columns.
type HashJoin struct {
	Left, Right         Node
	LeftKeys, RightKeys []int // column indices, parallel slices
}

// Schema implements Node.
func (j *HashJoin) Schema() table.Schema {
	var sch table.Schema
	sch.Cols = append(sch.Cols, j.Left.Schema().Cols...)
	sch.Cols = append(sch.Cols, j.Right.Schema().Cols...)
	return sch
}

// Run implements Node.
func (j *HashJoin) Run(ctx *Context) (*table.Table, error) {
	if len(j.LeftKeys) != len(j.RightKeys) || len(j.LeftKeys) == 0 {
		return nil, fmt.Errorf("engine: join needs matching non-empty key lists")
	}
	left, err := j.Left.Run(ctx)
	if err != nil {
		return nil, err
	}
	right, err := j.Right.Run(ctx)
	if err != nil {
		return nil, err
	}
	build := make(map[string][]int)
	var key []byte
	for i := 0; i < right.NumRows(); i++ {
		key = key[:0]
		for _, c := range j.RightKeys {
			key = appendKey(key, right.Cols[c].Value(i))
		}
		build[string(key)] = append(build[string(key)], i)
	}
	var leftIdx, rightIdx []int
	for i := 0; i < left.NumRows(); i++ {
		key = key[:0]
		for _, c := range j.LeftKeys {
			key = appendKey(key, left.Cols[c].Value(i))
		}
		for _, r := range build[string(key)] {
			leftIdx = append(leftIdx, i)
			rightIdx = append(rightIdx, r)
		}
	}
	lg := left.Gather(leftIdx)
	rg := right.Gather(rightIdx)
	out := &table.Table{Schema: j.Schema()}
	out.Cols = append(out.Cols, lg.Cols...)
	out.Cols = append(out.Cols, rg.Cols...)
	return out, nil
}

// String implements Node.
func (j *HashJoin) String() string {
	return fmt.Sprintf("HashJoin(keys=%v=%v)", j.LeftKeys, j.RightKeys)
}

// appendKey encodes a value unambiguously into a join/group key, bucketing
// values together when OpEq compares them equal: negative zero folds into
// positive zero (-0.0 == 0.0; the %g formatting this replaced split them).
// NaN is the deliberate exception — Value.Compare reports NaN equal to
// EVERY float, which no hash key can express, so keys bucket all NaNs
// together and apart from ordinary numbers; TestJoinKeyNaN pins that
// asymmetry. Keys build with strconv into a caller-reused buffer instead
// of allocating through fmt.Fprintf per value.
func appendKey(b []byte, v table.Value) []byte {
	switch v.Type {
	case table.Int:
		b = append(b, 'i')
		b = strconv.AppendInt(b, v.I, 10)
	case table.Float:
		f := v.F
		if f == 0 {
			f = 0 // fold -0.0 into +0.0: OpEq compares them equal
		}
		b = append(b, 'f')
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
	default:
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(len(v.S)), 10)
		b = append(b, ':')
		b = append(b, v.S...)
	}
	return append(b, '|')
}

// --- Sort ---

// SortKey orders by one column.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort orders rows by the given keys (stable).
type Sort struct {
	Input Node
	Keys  []SortKey
}

// Schema implements Node.
func (s *Sort) Schema() table.Schema { return s.Input.Schema() }

// Run implements Node.
func (s *Sort) Run(ctx *Context) (*table.Table, error) { return s.top(ctx, math.MaxInt) }

// top returns the first k rows of the sorted input. A Limit over a Sort
// calls it, so ORDER BY … LIMIT k orders only the k rows it keeps.
func (s *Sort) top(ctx *Context, k int) (*table.Table, error) {
	in, err := s.Input.Run(ctx)
	if err != nil {
		return nil, err
	}
	n := in.NumRows()
	k = min(k, n)
	byKeys, nan := keyOrder(in, s.Keys)
	if nan {
		// A NaN key equals every value, so no total order agrees with the
		// keys: only a stable sort's own comparisons give its output.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return byKeys(idx[a], idx[b]) < 0 })
		return in.Gather(idx[:k]), nil
	}
	// Ties broken by row index make the order total, so the k first rows
	// by it are exactly the stable sort's.
	return in.Gather(smallest(n, k, func(a, b int) int {
		if c := byKeys(a, b); c != 0 {
			return c
		}
		return a - b
	})), nil
}

// keyOrder compares two rows of in by keys as Value.Compare orders their
// values: INT as float64, FLOAT by value, STRING bytewise; DESC reverses a
// key. nan reports a FLOAT key holding a NaN, which compares equal to every
// value.
func keyOrder(in *table.Table, keys []SortKey) (order func(a, b int) int, nan bool) {
	cols := make([]*table.Vector, len(keys))
	for i, k := range keys {
		cols[i] = in.Cols[k.Col]
		nan = nan || slices.ContainsFunc(cols[i].Floats, math.IsNaN)
	}
	return func(a, b int) int {
		for i, v := range cols {
			var c int
			switch v.Type {
			case table.Int:
				c = compareFloats(float64(v.Ints[a]), float64(v.Ints[b]))
			case table.Float:
				c = compareFloats(v.Floats[a], v.Floats[b])
			default:
				c = strings.Compare(v.Strs[a], v.Strs[b])
			}
			if c != 0 {
				if keys[i].Desc {
					return -c
				}
				return c
			}
		}
		return 0
	}, nan
}

// compareFloats is Value.Compare's numeric order: a NaN equals everything.
func compareFloats(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// smallest returns, in order, the k first of rows 0 … n-1 by order, a
// total order. Below n it keeps them in a max-heap, whose root is the last
// row kept, and sorts only those.
func smallest(n, k int, order func(a, b int) int) []int {
	h := make([]int, k)
	for i := range h {
		h[i] = i
	}
	if 0 < k && k < n {
		down := func(p int) {
			for {
				c := 2*p + 1
				if c >= k {
					return
				}
				if c+1 < k && order(h[c], h[c+1]) < 0 {
					c++
				}
				if order(h[p], h[c]) >= 0 {
					return
				}
				h[p], h[c] = h[c], h[p]
				p = c
			}
		}
		for p := k/2 - 1; p >= 0; p-- {
			down(p)
		}
		for i := k; i < n; i++ {
			if order(i, h[0]) < 0 {
				h[0] = i
				down(0)
			}
		}
	}
	slices.SortFunc(h, order)
	return h
}

// String implements Node.
func (s *Sort) String() string { return fmt.Sprintf("Sort(%d keys)", len(s.Keys)) }

// --- Limit ---

// Limit passes through at most N rows. Over a Sort it keeps only the first
// N rows while sorting (Sort.top) instead of sorting every row.
type Limit struct {
	Input Node
	N     int
}

// Schema implements Node.
func (l *Limit) Schema() table.Schema { return l.Input.Schema() }

// Run implements Node.
func (l *Limit) Run(ctx *Context) (*table.Table, error) {
	if s, ok := l.Input.(*Sort); ok {
		return s.top(ctx, max(l.N, 0))
	}
	in, err := l.Input.Run(ctx)
	if err != nil {
		return nil, err
	}
	n := l.N
	if n > in.NumRows() {
		n = in.NumRows()
	}
	if n < 0 {
		n = 0
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return in.Gather(idx), nil
}

// String implements Node.
func (l *Limit) String() string { return fmt.Sprintf("Limit(%d)", l.N) }

// fillRow copies row i of t into row (avoiding per-row allocation).
func fillRow(t *table.Table, i int, row []table.Value) {
	for c, v := range t.Cols {
		row[c] = v.Value(i)
	}
}
