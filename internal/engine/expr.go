// Package engine is the columnar execution engine S/C submits MV-refresh
// statements to, standing in for the Presto cluster in the paper's stack.
// It evaluates plan trees of scans, filters, projections, hash joins, hash
// aggregations, sorts and limits over tables resolved by name—from the
// Memory Catalog or from external storage, which is exactly the distinction
// S/C's optimization exploits.
package engine

import (
	"fmt"

	"github.com/shortcircuit-db/sc/internal/table"
)

// Expr is a row-wise expression over an input row.
type Expr interface {
	// Type returns the static result type given the input schema.
	Type(sch table.Schema) (table.Type, error)
	// Eval computes the value for one row.
	Eval(row []table.Value) (table.Value, error)
	// String renders the expression for plan display.
	String() string
}

// ColRef references an input column by position.
type ColRef struct {
	Idx  int
	Name string // for display only
}

// Type implements Expr.
func (c *ColRef) Type(sch table.Schema) (table.Type, error) {
	if c.Idx < 0 || c.Idx >= sch.NumCols() {
		return 0, fmt.Errorf("engine: column index %d out of range for %s", c.Idx, sch)
	}
	return sch.Cols[c.Idx].Type, nil
}

// Eval implements Expr.
func (c *ColRef) Eval(row []table.Value) (table.Value, error) {
	if c.Idx < 0 || c.Idx >= len(row) {
		return table.Value{}, fmt.Errorf("engine: column index %d out of range", c.Idx)
	}
	return row[c.Idx], nil
}

// String implements Expr.
func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// Lit is a constant.
type Lit struct {
	V table.Value
}

// Type implements Expr.
func (l *Lit) Type(table.Schema) (table.Type, error) { return l.V.Type, nil }

// Eval implements Expr.
func (l *Lit) Eval([]table.Value) (table.Value, error) { return l.V, nil }

// String implements Expr.
func (l *Lit) String() string {
	if l.V.Type == table.Str {
		return fmt.Sprintf("%q", l.V.S)
	}
	return l.V.String()
}

// BinOp enumerates binary operators. Comparison and logical operators
// return INT 0/1 booleans.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// IsComparison reports whether the operator yields a boolean from two
// comparable operands.
func (op BinOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// IsLogical reports whether the operator combines booleans.
func (op BinOp) IsLogical() bool { return op == OpAnd || op == OpOr }

// Bin applies a binary operator.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// And joins conjuncts with AND into a balanced tree, so that however many
// there are, the tree is only logarithmically deeper than the deepest of
// them. It evaluates, short-circuits and fails exactly as the left-deep
// chain of the same conjuncts does.
func And(conjuncts []Expr) Expr {
	if len(conjuncts) == 1 {
		return conjuncts[0]
	}
	mid := (len(conjuncts) + 1) / 2
	return &Bin{Op: OpAnd, L: And(conjuncts[:mid]), R: And(conjuncts[mid:])}
}

// Type implements Expr.
func (b *Bin) Type(sch table.Schema) (table.Type, error) {
	lt, err := b.L.Type(sch)
	if err != nil {
		return 0, err
	}
	rt, err := b.R.Type(sch)
	if err != nil {
		return 0, err
	}
	switch {
	case b.Op.IsComparison(), b.Op.IsLogical():
		if b.Op.IsComparison() && (lt == table.Str) != (rt == table.Str) {
			return 0, fmt.Errorf("engine: cannot compare %s with %s", lt, rt)
		}
		return table.Int, nil
	default: // arithmetic
		if lt == table.Str || rt == table.Str {
			return 0, fmt.Errorf("engine: arithmetic on STRING")
		}
		if b.Op == OpMod && (lt == table.Float || rt == table.Float) {
			return 0, fmt.Errorf("engine: modulo on FLOAT")
		}
		if lt == table.Float || rt == table.Float || b.Op == OpDiv {
			return table.Float, nil
		}
		return table.Int, nil
	}
}

// Eval implements Expr.
func (b *Bin) Eval(row []table.Value) (table.Value, error) {
	l, err := b.L.Eval(row)
	if err != nil {
		return table.Value{}, err
	}
	// Short-circuit logical operators.
	if b.Op == OpAnd && !truthy(l) {
		return table.IntValue(0), nil
	}
	if b.Op == OpOr && truthy(l) {
		return table.IntValue(1), nil
	}
	r, err := b.R.Eval(row)
	if err != nil {
		return table.Value{}, err
	}
	switch {
	case b.Op.IsLogical():
		return boolValue(truthy(r)), nil
	case b.Op.IsComparison():
		c, err := l.Compare(r)
		if err != nil {
			return table.Value{}, err
		}
		switch b.Op {
		case OpEq:
			return boolValue(c == 0), nil
		case OpNe:
			return boolValue(c != 0), nil
		case OpLt:
			return boolValue(c < 0), nil
		case OpLe:
			return boolValue(c <= 0), nil
		case OpGt:
			return boolValue(c > 0), nil
		default:
			return boolValue(c >= 0), nil
		}
	default:
		return evalArith(b.Op, l, r)
	}
}

func evalArith(op BinOp, l, r table.Value) (table.Value, error) {
	if l.Type == table.Str || r.Type == table.Str {
		return table.Value{}, fmt.Errorf("engine: arithmetic on STRING")
	}
	if l.Type == table.Int && r.Type == table.Int && op != OpDiv {
		a, b := l.I, r.I
		switch op {
		case OpAdd:
			return table.IntValue(a + b), nil
		case OpSub:
			return table.IntValue(a - b), nil
		case OpMul:
			return table.IntValue(a * b), nil
		case OpMod:
			if b == 0 {
				return table.Value{}, fmt.Errorf("engine: modulo by zero")
			}
			return table.IntValue(a % b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case OpAdd:
		return table.FloatValue(a + b), nil
	case OpSub:
		return table.FloatValue(a - b), nil
	case OpMul:
		return table.FloatValue(a * b), nil
	case OpDiv:
		if b == 0 {
			return table.Value{}, fmt.Errorf("engine: division by zero")
		}
		return table.FloatValue(a / b), nil
	case OpMod:
		return table.Value{}, fmt.Errorf("engine: modulo on FLOAT")
	}
	return table.Value{}, fmt.Errorf("engine: bad arithmetic op %d", op)
}

// String implements Expr.
func (b *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, binOpNames[b.Op], b.R)
}

// Not negates a boolean expression.
type Not struct {
	E Expr
}

// Type implements Expr.
func (n *Not) Type(sch table.Schema) (table.Type, error) {
	if _, err := n.E.Type(sch); err != nil {
		return 0, err
	}
	return table.Int, nil
}

// Eval implements Expr.
func (n *Not) Eval(row []table.Value) (table.Value, error) {
	v, err := n.E.Eval(row)
	if err != nil {
		return table.Value{}, err
	}
	return boolValue(!truthy(v)), nil
}

// String implements Expr.
func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// InList tests membership in a literal list (SQL IN).
type InList struct {
	E    Expr
	List []table.Value
}

// Type implements Expr.
func (in *InList) Type(sch table.Schema) (table.Type, error) {
	if _, err := in.E.Type(sch); err != nil {
		return 0, err
	}
	return table.Int, nil
}

// Eval implements Expr.
func (in *InList) Eval(row []table.Value) (table.Value, error) {
	v, err := in.E.Eval(row)
	if err != nil {
		return table.Value{}, err
	}
	for _, item := range in.List {
		c, err := v.Compare(item)
		if err != nil {
			return table.Value{}, err
		}
		if c == 0 {
			return table.IntValue(1), nil
		}
	}
	return table.IntValue(0), nil
}

// String implements Expr.
func (in *InList) String() string { return fmt.Sprintf("(%s IN [%d items])", in.E, len(in.List)) }

func truthy(v table.Value) bool {
	switch v.Type {
	case table.Int:
		return v.I != 0
	case table.Float:
		return v.F != 0
	default:
		return v.S != ""
	}
}

func boolValue(b bool) table.Value {
	if b {
		return table.IntValue(1)
	}
	return table.IntValue(0)
}
