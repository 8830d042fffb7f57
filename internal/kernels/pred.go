package kernels

import (
	"fmt"
	"strings"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// Pred is a compiled predicate: a boolean combination of single-column
// comparisons against literals. Compilation proves the predicate can never
// fail at evaluation time (every leaf is type-compatible), which is what
// lets the kernels reorder and short-circuit work freely — and what keeps
// join pushdown byte-identical to the row engine's left-to-right,
// short-circuit evaluation.
type Pred struct {
	kind predKind
	kids []*Pred // and/or/not operands

	// leaf fields
	col  int
	cmp  cmpOp
	lits []table.Value // one literal for comparisons, the list for IN
}

type predKind uint8

const (
	predLeaf predKind = iota
	predAnd
	predOr
	predNot
)

// cmpOp enumerates leaf comparison operators.
type cmpOp uint8

const (
	cmpEq cmpOp = iota
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
	cmpIn
)

var cmpNames = map[cmpOp]string{
	cmpEq: "=", cmpNe: "<>", cmpLt: "<", cmpLe: "<=", cmpGt: ">", cmpGe: ">=", cmpIn: "IN",
}

// flip mirrors a comparison for swapped operands (lit <op> col → col <op'> lit).
func (op cmpOp) flip() cmpOp {
	switch op {
	case cmpLt:
		return cmpGt
	case cmpLe:
		return cmpGe
	case cmpGt:
		return cmpLt
	case cmpGe:
		return cmpLe
	default: // eq, ne are symmetric
		return op
	}
}

// String renders the predicate for plan display.
func (p *Pred) String() string {
	switch p.kind {
	case predAnd, predOr:
		op := " AND "
		if p.kind == predOr {
			op = " OR "
		}
		parts := make([]string, len(p.kids))
		for i, k := range p.kids {
			parts[i] = k.String()
		}
		return "(" + strings.Join(parts, op) + ")"
	case predNot:
		return fmt.Sprintf("(NOT %s)", p.kids[0])
	default:
		if p.cmp == cmpIn {
			return fmt.Sprintf("($%d IN [%d items])", p.col, len(p.lits))
		}
		return fmt.Sprintf("($%d %s %s)", p.col, cmpNames[p.cmp], p.lits[0])
	}
}

// Compile translates an engine predicate into kernel form. It returns
// false when the expression contains anything beyond and/or/not over
// column-vs-literal comparisons and IN lists, or when a leaf could error
// at runtime (string compared with a number) — those run on the row
// engine, which preserves the error behavior exactly.
func Compile(e engine.Expr, sch table.Schema) (*Pred, bool) {
	switch v := e.(type) {
	case *engine.Bin:
		if v.Op == engine.OpAnd || v.Op == engine.OpOr {
			l, ok := Compile(v.L, sch)
			if !ok {
				return nil, false
			}
			r, ok := Compile(v.R, sch)
			if !ok {
				return nil, false
			}
			kind := predAnd
			if v.Op == engine.OpOr {
				kind = predOr
			}
			return &Pred{kind: kind, kids: []*Pred{l, r}}, true
		}
		if !v.Op.IsComparison() {
			return nil, false
		}
		op, okOp := cmpFor(v.Op)
		if !okOp {
			return nil, false
		}
		if col, lit, ok := colLit(v.L, v.R); ok {
			return leaf(col, op, lit, sch)
		}
		if col, lit, ok := colLit(v.R, v.L); ok {
			return leaf(col, op.flip(), lit, sch)
		}
		return nil, false
	case *engine.Not:
		inner, ok := Compile(v.E, sch)
		if !ok {
			return nil, false
		}
		return &Pred{kind: predNot, kids: []*Pred{inner}}, true
	case *engine.InList:
		cr, ok := v.E.(*engine.ColRef)
		if !ok || cr.Idx < 0 || cr.Idx >= sch.NumCols() {
			return nil, false
		}
		ct := sch.Cols[cr.Idx].Type
		for _, item := range v.List {
			if !comparable(ct, item.Type) {
				return nil, false
			}
		}
		return &Pred{kind: predLeaf, col: cr.Idx, cmp: cmpIn, lits: v.List}, true
	}
	return nil, false
}

func cmpFor(op engine.BinOp) (cmpOp, bool) {
	switch op {
	case engine.OpEq:
		return cmpEq, true
	case engine.OpNe:
		return cmpNe, true
	case engine.OpLt:
		return cmpLt, true
	case engine.OpLe:
		return cmpLe, true
	case engine.OpGt:
		return cmpGt, true
	case engine.OpGe:
		return cmpGe, true
	}
	return 0, false
}

func colLit(a, b engine.Expr) (col *engine.ColRef, lit table.Value, ok bool) {
	cr, okC := a.(*engine.ColRef)
	l, okL := b.(*engine.Lit)
	if !okC || !okL {
		return nil, table.Value{}, false
	}
	return cr, l.V, true
}

func leaf(col *engine.ColRef, op cmpOp, lit table.Value, sch table.Schema) (*Pred, bool) {
	if col.Idx < 0 || col.Idx >= sch.NumCols() {
		return nil, false
	}
	if !comparable(sch.Cols[col.Idx].Type, lit.Type) {
		return nil, false
	}
	return &Pred{kind: predLeaf, col: col.Idx, cmp: op, lits: []table.Value{lit}}, true
}

// comparable mirrors table.Value.Compare's error condition: strings only
// compare with strings, numerics cross-compare freely.
func comparable(a, b table.Type) bool {
	return (a == table.Str) == (b == table.Str)
}

// --- per-chunk evaluation ---

// eval computes the row-group selection vector. Dictionary chunks are
// decided in code space, RLE chunks once per run; everything else decodes
// the one column the leaf reads.
func (p *Pred) eval(cc *chunkCtx) (*bitmap, error) {
	switch p.kind {
	case predAnd:
		// Leaves cannot error on valid chunks, so short-circuiting an AND
		// over an empty selection is safe and skips whole columns.
		bm, err := p.kids[0].eval(cc)
		if err != nil {
			return nil, err
		}
		for _, k := range p.kids[1:] {
			if bm.none() {
				return bm, nil
			}
			o, err := k.eval(cc)
			if err != nil {
				return nil, err
			}
			bm.and(o)
		}
		return bm, nil
	case predOr:
		bm, err := p.kids[0].eval(cc)
		if err != nil {
			return nil, err
		}
		for _, k := range p.kids[1:] {
			if bm.all() {
				return bm, nil
			}
			o, err := k.eval(cc)
			if err != nil {
				return nil, err
			}
			bm.or(o)
		}
		return bm, nil
	case predNot:
		bm, err := p.kids[0].eval(cc)
		if err != nil {
			return nil, err
		}
		bm.not()
		return bm, nil
	}
	return p.evalLeaf(cc)
}

func (p *Pred) evalLeaf(cc *chunkCtx) (*bitmap, error) {
	cs, err := cc.parse(p.col)
	if err != nil {
		return nil, err
	}
	bm := newBitmap(cc.rows)
	switch {
	case cs.vec != nil:
		for i := 0; i < cc.rows; i++ {
			if p.matches(cs.vec.Value(i)) {
				bm.set(i)
			}
		}
	case cs.dict != nil:
		pass := p.passingCodes(cs.dict)
		codes, _ := cs.dict.Codes()
		for i, c := range codes {
			if pass[c] {
				bm.set(i)
			}
		}
		cc.st.CodeFilteredRows += int64(cc.rows)
	case cs.runs != nil:
		pos := 0
		for _, r := range cs.runs {
			if p.matches(r.Val) {
				bm.setRange(pos, pos+r.Len)
			}
			pos += r.Len
		}
		cc.st.CodeFilteredRows += int64(cc.rows)
	default:
		vec, err := cc.vector(p.col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cc.rows; i++ {
			if p.matches(vec.Value(i)) {
				bm.set(i)
			}
		}
	}
	return bm, nil
}

// matches evaluates the leaf against one value with the row engine's
// comparison semantics. Compilation guarantees Compare cannot error.
func (p *Pred) matches(v table.Value) bool {
	if p.cmp == cmpIn {
		for _, lit := range p.lits {
			if c, err := v.Compare(lit); err == nil && c == 0 {
				return true
			}
		}
		return false
	}
	c, _ := v.Compare(p.lits[0])
	switch p.cmp {
	case cmpEq:
		return c == 0
	case cmpNe:
		return c != 0
	case cmpLt:
		return c < 0
	case cmpLe:
		return c <= 0
	case cmpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// passingCodes computes the set of dictionary codes satisfying the leaf:
// each entry is tested once, however many rows carry its code.
func (p *Pred) passingCodes(dv *encoding.DictView) []bool {
	pass := make([]bool, dv.Card())
	for c := range pass {
		pass[c] = p.matches(dv.Value(c))
	}
	return pass
}
