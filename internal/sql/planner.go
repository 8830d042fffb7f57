package sql

import (
	"fmt"
	"strings"

	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// Catalog resolves table names to schemas at plan time.
type Catalog interface {
	TableSchema(name string) (table.Schema, error)
}

// CatalogFunc adapts a function to the Catalog interface.
type CatalogFunc func(name string) (table.Schema, error)

// TableSchema implements Catalog.
func (f CatalogFunc) TableSchema(name string) (table.Schema, error) { return f(name) }

// Plan lowers a parsed statement to an executable engine plan. It returns
// the plan and the list of base/input table names the statement scans,
// which the controller uses to wire dependencies.
func Plan(stmt *Statement, cat Catalog) (engine.Node, []string, error) {
	sel := stmt.Select
	sc := &scope{}
	var inputs []string

	// FROM and JOINs.
	node, err := addTable(sc, cat, sel.From)
	if err != nil {
		return nil, nil, err
	}
	inputs = append(inputs, sel.From.Name)
	for _, jc := range sel.Joins {
		right, err := addTable(sc, cat, jc.Table)
		if err != nil {
			return nil, nil, err
		}
		inputs = append(inputs, jc.Table.Name)
		node, err = planJoin(sc, node, right, jc)
		if err != nil {
			return nil, nil, err
		}
	}

	// WHERE.
	if sel.Where != nil {
		pred, err := lowerExpr(sc, sel.Where, false)
		if err != nil {
			return nil, nil, err
		}
		node = &engine.Filter{Input: node, Pred: pred}
	}

	// SELECT / GROUP BY.
	node, err = planSelectList(sc, node, sel)
	if err != nil {
		return nil, nil, err
	}

	// ORDER BY (resolved against the output schema).
	if len(sel.OrderBy) > 0 {
		outSch := node.Schema()
		var keys []engine.SortKey
		for _, oi := range sel.OrderBy {
			id, ok := oi.Expr.(*Ident)
			if !ok {
				return nil, nil, fmt.Errorf("sql: ORDER BY supports only column names")
			}
			idx := outSch.ColIndex(id.Name)
			if idx < 0 {
				return nil, nil, fmt.Errorf("sql: ORDER BY column %q not in output", id.Name)
			}
			keys = append(keys, engine.SortKey{Col: idx, Desc: oi.Desc})
		}
		node = &engine.Sort{Input: node, Keys: keys}
	}

	if sel.Limit >= 0 {
		node = &engine.Limit{Input: node, N: sel.Limit}
	}
	return node, inputs, nil
}

// PlanString parses and plans in one step, for callers holding SQL text.
func PlanString(sqlText string, cat Catalog) (engine.Node, []string, error) {
	stmt, err := Parse(sqlText)
	if err != nil {
		return nil, nil, err
	}
	return Plan(stmt, cat)
}

// InputTables parses the statement and returns only the scanned table
// names; the controller uses it to extract the dependency graph from MV
// definitions without a catalog.
func InputTables(sqlText string) ([]string, error) {
	stmt, err := Parse(sqlText)
	if err != nil {
		return nil, err
	}
	inputs := []string{stmt.Select.From.Name}
	for _, j := range stmt.Select.Joins {
		inputs = append(inputs, j.Table.Name)
	}
	return inputs, nil
}

// scope tracks the flattened column namespace of the current row.
type scope struct {
	entries []scopeEntry
}

type scopeEntry struct {
	qualifier string // table bind name
	name      string // column name
	typ       table.Type
}

func (s *scope) add(qualifier string, sch table.Schema) {
	for _, c := range sch.Cols {
		s.entries = append(s.entries, scopeEntry{qualifier, c.Name, c.Type})
	}
}

// resolve returns the index of the identifier in the flattened row.
func (s *scope) resolve(id *Ident) (int, table.Type, error) {
	found := -1
	var typ table.Type
	for i, e := range s.entries {
		if !strings.EqualFold(e.name, id.Name) {
			continue
		}
		if id.Qualifier != "" && !strings.EqualFold(e.qualifier, id.Qualifier) {
			continue
		}
		if found >= 0 {
			return 0, 0, fmt.Errorf("sql: ambiguous column %q", display(id))
		}
		found = i
		typ = e.typ
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("sql: unknown column %q", display(id))
	}
	return found, typ, nil
}

func display(id *Ident) string {
	if id.Qualifier != "" {
		return id.Qualifier + "." + id.Name
	}
	return id.Name
}

func addTable(sc *scope, cat Catalog, ref TableRef) (engine.Node, error) {
	sch, err := cat.TableSchema(ref.Name)
	if err != nil {
		return nil, fmt.Errorf("sql: table %q: %w", ref.Name, err)
	}
	sc.add(ref.Bind(), sch)
	return &engine.Scan{Name: ref.Name, Sch: sch}, nil
}

// planJoin lowers one JOIN clause: equi-conjuncts on the ON condition
// become hash-join keys; any remaining conjuncts become a post-join filter.
// The scope already contains the right table's columns (appended last), so
// right-scope indices are >= leftWidth.
func planJoin(sc *scope, left, right engine.Node, jc JoinClause) (engine.Node, error) {
	leftWidth := left.Schema().NumCols()
	conjuncts := splitConjuncts(jc.On)
	var leftKeys, rightKeys []int
	var residual []Expr
	for _, c := range conjuncts {
		be, ok := c.(*BinExpr)
		if !ok || be.Op != "=" {
			residual = append(residual, c)
			continue
		}
		li, lok := be.L.(*Ident)
		ri, rok := be.R.(*Ident)
		if !lok || !rok {
			residual = append(residual, c)
			continue
		}
		a, _, errA := sc.resolve(li)
		b, _, errB := sc.resolve(ri)
		if errA != nil || errB != nil {
			if errA != nil {
				return nil, errA
			}
			return nil, errB
		}
		switch {
		case a < leftWidth && b >= leftWidth:
			leftKeys = append(leftKeys, a)
			rightKeys = append(rightKeys, b-leftWidth)
		case b < leftWidth && a >= leftWidth:
			leftKeys = append(leftKeys, b)
			rightKeys = append(rightKeys, a-leftWidth)
		default:
			residual = append(residual, c)
		}
	}
	if len(leftKeys) == 0 {
		return nil, fmt.Errorf("sql: JOIN requires at least one cross-table equality in ON")
	}
	var node engine.Node = &engine.HashJoin{
		Left: left, Right: right, LeftKeys: leftKeys, RightKeys: rightKeys,
	}
	if len(residual) > 0 {
		preds := make([]engine.Expr, len(residual))
		for i, c := range residual {
			p, err := lowerExpr(sc, c, false)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		node = &engine.Filter{Input: node, Pred: engine.And(preds)}
	}
	return node, nil
}

func splitConjuncts(e Expr) []Expr {
	if be, ok := e.(*BinExpr); ok && be.Op == "AND" {
		return append(splitConjuncts(be.L), splitConjuncts(be.R)...)
	}
	return []Expr{e}
}

// planSelectList lowers the SELECT list, inserting an Aggregate when the
// query groups or uses aggregate functions.
func planSelectList(sc *scope, node engine.Node, sel *SelectStmt) (engine.Node, error) {
	if sel.Star {
		if len(sel.GroupBy) > 0 {
			return nil, fmt.Errorf("sql: SELECT * with GROUP BY is not supported")
		}
		return node, nil
	}
	hasAgg := len(sel.GroupBy) > 0
	for _, item := range sel.Items {
		if containsAgg(item.Expr) {
			hasAgg = true
		}
	}
	if !hasAgg {
		var exprs []engine.Expr
		var names []string
		for i, item := range sel.Items {
			e, err := lowerExpr(sc, item.Expr, false)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, e)
			names = append(names, outputName(item, i))
		}
		return engine.NewProject(node, exprs, names)
	}
	return planAggregate(sc, node, sel)
}

// planAggregate builds Aggregate + a reordering projection so output
// columns appear in SELECT order.
func planAggregate(sc *scope, node engine.Node, sel *SelectStmt) (engine.Node, error) {
	// Group-by keys must be plain columns.
	var groupIdx []int
	groupPos := map[int]int{} // input column index -> position among keys
	for _, g := range sel.GroupBy {
		id, ok := g.(*Ident)
		if !ok {
			return nil, fmt.Errorf("sql: GROUP BY supports only column names")
		}
		idx, _, err := sc.resolve(id)
		if err != nil {
			return nil, err
		}
		if _, dup := groupPos[idx]; !dup {
			groupPos[idx] = len(groupIdx)
			groupIdx = append(groupIdx, idx)
		}
	}
	var specs []engine.AggSpec
	// outputRef[i] describes where select item i comes from in the
	// aggregate output: group key k (>=0) or aggregate -(a+1).
	outputRef := make([]int, len(sel.Items))
	names := make([]string, len(sel.Items))
	for i, item := range sel.Items {
		names[i] = outputName(item, i)
		switch e := item.Expr.(type) {
		case *Ident:
			idx, _, err := sc.resolve(e)
			if err != nil {
				return nil, err
			}
			k, ok := groupPos[idx]
			if !ok {
				return nil, fmt.Errorf("sql: column %q must appear in GROUP BY", display(e))
			}
			outputRef[i] = k
		case *FuncCall:
			spec, err := lowerAgg(sc, e, names[i])
			if err != nil {
				return nil, err
			}
			outputRef[i] = -(len(specs) + 1)
			specs = append(specs, spec)
		default:
			return nil, fmt.Errorf("sql: select item %d must be a grouped column or aggregate", i+1)
		}
	}
	agg, err := engine.NewAggregate(node, groupIdx, specs)
	if err != nil {
		return nil, err
	}
	// Reorder aggregate output (keys first, then aggs) into SELECT order.
	aggSch := agg.Schema()
	var exprs []engine.Expr
	for i := range sel.Items {
		var srcIdx int
		if outputRef[i] >= 0 {
			srcIdx = outputRef[i]
		} else {
			srcIdx = len(groupIdx) + (-outputRef[i] - 1)
		}
		exprs = append(exprs, &engine.ColRef{Idx: srcIdx, Name: aggSch.Cols[srcIdx].Name})
	}
	return engine.NewProject(agg, exprs, names)
}

func lowerAgg(sc *scope, fc *FuncCall, name string) (engine.AggSpec, error) {
	var fn engine.AggFunc
	switch fc.Name {
	case "COUNT":
		fn = engine.AggCount
	case "SUM":
		fn = engine.AggSum
	case "AVG":
		fn = engine.AggAvg
	case "MIN":
		fn = engine.AggMin
	case "MAX":
		fn = engine.AggMax
	default:
		return engine.AggSpec{}, fmt.Errorf("sql: unknown aggregate %q", fc.Name)
	}
	spec := engine.AggSpec{Func: fn, Name: name}
	if !fc.Star {
		arg, err := lowerExpr(sc, fc.Arg, true)
		if err != nil {
			return engine.AggSpec{}, err
		}
		spec.Arg = arg
	}
	return spec, nil
}

func containsAgg(e Expr) bool {
	switch v := e.(type) {
	case *FuncCall:
		return true
	case *BinExpr:
		return containsAgg(v.L) || containsAgg(v.R)
	case *NotExpr:
		return containsAgg(v.E)
	case *InExpr:
		return containsAgg(v.E)
	}
	return false
}

func outputName(item SelectItem, i int) string {
	if item.Alias != "" {
		return item.Alias
	}
	if id, ok := item.Expr.(*Ident); ok {
		return id.Name
	}
	if fc, ok := item.Expr.(*FuncCall); ok {
		return strings.ToLower(fc.Name)
	}
	return fmt.Sprintf("col%d", i)
}

// lowerExpr converts an AST expression to an engine expression. insideAgg
// rejects nested aggregate calls.
func lowerExpr(sc *scope, e Expr, insideAgg bool) (engine.Expr, error) {
	switch v := e.(type) {
	case *Ident:
		idx, _, err := sc.resolve(v)
		if err != nil {
			return nil, err
		}
		return &engine.ColRef{Idx: idx, Name: display(v)}, nil
	case *NumLit:
		if v.IsFloat {
			return &engine.Lit{V: table.FloatValue(v.F)}, nil
		}
		return &engine.Lit{V: table.IntValue(v.I)}, nil
	case *StrLit:
		return &engine.Lit{V: table.StrValue(v.S)}, nil
	case *BinExpr:
		l, err := lowerExpr(sc, v.L, insideAgg)
		if err != nil {
			return nil, err
		}
		r, err := lowerExpr(sc, v.R, insideAgg)
		if err != nil {
			return nil, err
		}
		op, err := binOpFor(v.Op)
		if err != nil {
			return nil, err
		}
		return &engine.Bin{Op: op, L: l, R: r}, nil
	case *NotExpr:
		inner, err := lowerExpr(sc, v.E, insideAgg)
		if err != nil {
			return nil, err
		}
		return &engine.Not{E: inner}, nil
	case *InExpr:
		inner, err := lowerExpr(sc, v.E, insideAgg)
		if err != nil {
			return nil, err
		}
		var list []table.Value
		for _, item := range v.List {
			switch lit := item.(type) {
			case *NumLit:
				if lit.IsFloat {
					list = append(list, table.FloatValue(lit.F))
				} else {
					list = append(list, table.IntValue(lit.I))
				}
			case *StrLit:
				list = append(list, table.StrValue(lit.S))
			default:
				return nil, fmt.Errorf("sql: IN list supports only literals")
			}
		}
		var out engine.Expr = &engine.InList{E: inner, List: list}
		if v.Neg {
			out = &engine.Not{E: out}
		}
		return out, nil
	case *FuncCall:
		return nil, fmt.Errorf("sql: aggregate %s not allowed here", v.Name)
	}
	return nil, fmt.Errorf("sql: unsupported expression %T", e)
}

func binOpFor(op string) (engine.BinOp, error) {
	switch op {
	case "+":
		return engine.OpAdd, nil
	case "-":
		return engine.OpSub, nil
	case "*":
		return engine.OpMul, nil
	case "/":
		return engine.OpDiv, nil
	case "%":
		return engine.OpMod, nil
	case "=":
		return engine.OpEq, nil
	case "<>":
		return engine.OpNe, nil
	case "<":
		return engine.OpLt, nil
	case "<=":
		return engine.OpLe, nil
	case ">":
		return engine.OpGt, nil
	case ">=":
		return engine.OpGe, nil
	case "AND":
		return engine.OpAnd, nil
	case "OR":
		return engine.OpOr, nil
	}
	return 0, fmt.Errorf("sql: unknown operator %q", op)
}
