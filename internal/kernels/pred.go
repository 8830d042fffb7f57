package kernels

import (
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// Pred is a compiled predicate: one `column <op> literal` comparison.
// Compilation proves the comparison can never fail at evaluation time (the
// column and the literal are type-compatible), which is what keeps join
// pushdown byte-identical to the row engine's left-to-right, short-circuit
// evaluation.
type Pred struct {
	col int
	cmp engine.BinOp
	lit table.Value
}

// Compile translates an engine predicate into kernel form. It returns false
// for anything but a comparison of an in-range column (on the left) with a
// literal (on the right), or when that comparison could error at runtime
// (string compared with a number) — those run on the row engine, which
// preserves the error behavior exactly.
func Compile(e engine.Expr, sch table.Schema) (*Pred, bool) {
	b, ok := e.(*engine.Bin)
	if !ok || !b.Op.IsComparison() {
		return nil, false
	}
	cr, okC := b.L.(*engine.ColRef)
	lit, okL := b.R.(*engine.Lit)
	if !okC || !okL || cr.Idx < 0 || cr.Idx >= sch.NumCols() {
		return nil, false
	}
	// Strings only compare with strings, numerics cross-compare freely:
	// table.Value.Compare's error condition.
	if (sch.Cols[cr.Idx].Type == table.Str) != (lit.V.Type == table.Str) {
		return nil, false
	}
	return &Pred{col: cr.Idx, cmp: b.Op, lit: lit.V}, true
}

// eval computes the row-group selection vector, reading the column through
// the chunk's accessor.
func (p *Pred) eval(cc *chunkCtx) (*bitmap, error) {
	read, err := cc.accessor(p.col)
	if err != nil {
		return nil, err
	}
	bm := newBitmap(cc.rows)
	for i := 0; i < cc.rows; i++ {
		if p.matches(read(i)) {
			bm.set(i)
		}
	}
	return bm, nil
}

// matches evaluates the comparison against one value with the row engine's
// semantics. Compilation guarantees Compare cannot error.
func (p *Pred) matches(v table.Value) bool {
	c, _ := v.Compare(p.lit)
	switch p.cmp {
	case engine.OpEq:
		return c == 0
	case engine.OpNe:
		return c != 0
	case engine.OpLt:
		return c < 0
	case engine.OpLe:
		return c <= 0
	case engine.OpGt:
		return c > 0
	default:
		return c >= 0
	}
}
