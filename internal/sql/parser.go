package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// --- AST ---

// Statement is a parsed SQL statement: either a bare SELECT or a
// CREATE MATERIALIZED VIEW wrapping one.
type Statement struct {
	// CreateView is the MV name, or "" for a bare SELECT.
	CreateView string
	Select     *SelectStmt
}

// SelectStmt is a select block.
type SelectStmt struct {
	Items   []SelectItem
	Star    bool // SELECT *
	From    TableRef
	Joins   []JoinClause
	Where   Expr
	GroupBy []Expr
	OrderBy []OrderItem
	Limit   int // -1 when absent
}

// SelectItem is one output expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Bind returns the name the table is referred to by.
func (t TableRef) Bind() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is an inner join with an ON condition.
type JoinClause struct {
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Expr is a parsed expression node.
type Expr interface{ exprNode() }

// Ident is a possibly qualified identifier (a or a.b).
type Ident struct {
	Qualifier string // "" when unqualified
	Name      string
}

// NumLit is an integer or float literal.
type NumLit struct {
	IsFloat bool
	I       int64
	F       float64
}

// StrLit is a string literal.
type StrLit struct {
	S string
}

// BinExpr is a binary operation; Op is the SQL spelling (e.g. "<=", "AND").
type BinExpr struct {
	Op   string
	L, R Expr
}

// NotExpr negates a boolean expression.
type NotExpr struct {
	E Expr
}

// InExpr tests membership in a literal list.
type InExpr struct {
	E    Expr
	List []Expr
	Neg  bool
}

// FuncCall is an aggregate call: COUNT/SUM/AVG/MIN/MAX. Star marks
// COUNT(*).
type FuncCall struct {
	Name string // upper-case
	Arg  Expr   // nil for COUNT(*)
	Star bool
}

func (*Ident) exprNode()    {}
func (*NumLit) exprNode()   {}
func (*StrLit) exprNode()   {}
func (*BinExpr) exprNode()  {}
func (*NotExpr) exprNode()  {}
func (*InExpr) exprNode()   {}
func (*FuncCall) exprNode() {}

// --- parser ---

type parser struct {
	toks  []token
	pos   int
	depth int // nesting of the expression being parsed (see MaxExprDepth)
}

// Parse parses a single statement.
func Parse(input string) (*Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if p.cur().kind != tokEOF {
		return nil, p.errf("trailing input starting with %q", p.cur().text)
	}
	return stmt, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) accept(kind tokKind, text string) bool {
	if p.cur().kind == kind && p.cur().text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) error {
	if !p.accept(kind, text) {
		return p.errf("expected %q, found %q", text, p.cur().text)
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseStatement() (*Statement, error) {
	stmt := &Statement{}
	if p.accept(tokKeyword, "CREATE") {
		if err := p.expect(tokKeyword, "MATERIALIZED"); err != nil {
			return nil, err
		}
		if err := p.expect(tokKeyword, "VIEW"); err != nil {
			return nil, err
		}
		if p.cur().kind != tokIdent {
			return nil, p.errf("expected view name, found %q", p.cur().text)
		}
		stmt.CreateView = p.next().text
		if err := p.expect(tokKeyword, "AS"); err != nil {
			return nil, err
		}
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	stmt.Select = sel
	return stmt, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}
	if p.accept(tokSymbol, "*") {
		sel.Star = true
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			sel.Items = append(sel.Items, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	sel.From = from
	for {
		if p.accept(tokKeyword, "INNER") {
			if err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
		} else if !p.accept(tokKeyword, "JOIN") {
			break
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Joins = append(sel.Joins, JoinClause{Table: ref, On: cond})
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.accept(tokKeyword, "GROUP") {
		if err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		if p.cur().kind != tokNumber {
			return nil, p.errf("expected LIMIT count, found %q", p.cur().text)
		}
		v, err := strconv.Atoi(p.next().text)
		if err != nil || v < 0 {
			return nil, p.errf("bad LIMIT count")
		}
		sel.Limit = v
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(tokKeyword, "AS") {
		if p.cur().kind != tokIdent {
			return SelectItem{}, p.errf("expected alias, found %q", p.cur().text)
		}
		item.Alias = p.next().text
	} else if p.cur().kind == tokIdent {
		// Bare alias: SELECT a b FROM ...
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	if p.cur().kind != tokIdent {
		return TableRef{}, p.errf("expected table name, found %q", p.cur().text)
	}
	ref := TableRef{Name: p.next().text}
	if p.accept(tokKeyword, "AS") {
		if p.cur().kind != tokIdent {
			return TableRef{}, p.errf("expected table alias, found %q", p.cur().text)
		}
		ref.Alias = p.next().text
	} else if p.cur().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// MaxExprDepth bounds how deeply an expression may nest, so that no
// statement, however long, can make the parser, the planner or an
// expression's evaluation recurse without limit. A statement fails to parse
// when an expression's tree is more than MaxExprDepth nodes deep (a chain
// a + b + … is one node deeper per operator), or when it nests more than
// MaxExprDepth parentheses, NOTs, unary minuses, aggregate calls and IN
// lists inside one another.
const MaxExprDepth = 256

// Expression precedence: OR < AND < NOT < comparison/IN < additive <
// multiplicative < unary < primary.
func (p *parser) parseExpr() (Expr, error) {
	if err := p.descend(); err != nil {
		return nil, err
	}
	defer p.ascend()
	e, err := p.parseBinary(orOps, func() (Expr, error) { return p.parseBinary(andOps, p.parseNot) })
	if err == nil && p.depth == 1 && treeDeeper(e, MaxExprDepth) {
		return nil, p.errDeep()
	}
	return e, err
}

// descend enters one more level of the parser's recursion, failing past
// MaxExprDepth; ascend leaves it.
func (p *parser) descend() error {
	if p.depth++; p.depth > MaxExprDepth {
		return p.errDeep()
	}
	return nil
}

func (p *parser) ascend() { p.depth-- }

func (p *parser) errDeep() error {
	return p.errf("expression nests more than %d levels deep", MaxExprDepth)
}

// treeDeeper reports whether e is more than limit nodes deep, recursing at
// most limit+1 calls deep itself.
func treeDeeper(e Expr, limit int) bool {
	if limit <= 0 {
		return true
	}
	switch e := e.(type) {
	case *BinExpr:
		return treeDeeper(e.L, limit-1) || treeDeeper(e.R, limit-1)
	case *NotExpr:
		return treeDeeper(e.E, limit-1)
	case *InExpr:
		if treeDeeper(e.E, limit-1) {
			return true
		}
		for _, x := range e.List {
			if treeDeeper(x, limit-1) {
				return true
			}
		}
	case *FuncCall:
		return e.Arg != nil && treeDeeper(e.Arg, limit-1)
	}
	return false
}

// The operators of each left-associative level, by token kind.
var (
	orOps  = binaryOps{tokKeyword, []string{"OR"}}
	andOps = binaryOps{tokKeyword, []string{"AND"}}
	addOps = binaryOps{tokSymbol, []string{"+", "-"}}
	mulOps = binaryOps{tokSymbol, []string{"*", "/", "%"}}
)

type binaryOps struct {
	kind tokKind
	ops  []string
}

// parseBinary parses operand (op operand)* into a left-deep tree, so
// a - b - c is (a - b) - c. A chain of MaxExprDepth operators is already
// too deep, which stops a long one before it is built.
func (p *parser) parseBinary(level binaryOps, operand func() (Expr, error)) (Expr, error) {
	l, err := operand()
	if err != nil {
		return nil, err
	}
	for n := 1; ; n++ {
		op := ""
		for _, o := range level.ops {
			if p.accept(level.kind, o) {
				op = o
				break
			}
		}
		if op == "" {
			return l, nil
		}
		if n == MaxExprDepth {
			return nil, p.errDeep()
		}
		r, err := operand()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		if err := p.descend(); err != nil {
			return nil, err
		}
		defer p.ascend()
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IN / NOT IN
	neg := false
	if p.cur().kind == tokKeyword && p.cur().text == "NOT" &&
		p.toks[p.pos+1].kind == tokKeyword && p.toks[p.pos+1].text == "IN" {
		p.pos += 2
		neg = true
		return p.parseInList(l, neg)
	}
	if p.accept(tokKeyword, "IN") {
		return p.parseInList(l, neg)
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.accept(tokSymbol, op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &BinExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseInList(l Expr, neg bool) (Expr, error) {
	if err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	in := &InExpr{E: l, Neg: neg}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, e)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	return p.parseBinary(addOps, func() (Expr, error) { return p.parseBinary(mulOps, p.parseUnary) })
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		if err := p.descend(); err != nil {
			return nil, err
		}
		defer p.ascend()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*NumLit); ok {
			// A negated number is a literal, so an IN list can hold it.
			// 0 - x keeps what evaluating the subtraction gave: 0 - 0.0
			// is +0.0, and no parsed integer overflows when negated.
			if lit.IsFloat {
				return &NumLit{IsFloat: true, F: 0 - lit.F}, nil
			}
			return &NumLit{I: -lit.I}, nil
		}
		return &BinExpr{Op: "-", L: &NumLit{I: 0}, R: e}, nil
	}
	return p.parsePrimary()
}

var aggFuncs = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return &NumLit{IsFloat: true, F: f}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &NumLit{I: i}, nil
	case tokString:
		p.pos++
		return &StrLit{S: t.text}, nil
	case tokKeyword:
		if aggFuncs[t.text] {
			p.pos++
			if err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			fc := &FuncCall{Name: t.text}
			if p.accept(tokSymbol, "*") {
				if t.text != "COUNT" {
					return nil, p.errf("%s(*) is not valid", t.text)
				}
				fc.Star = true
			} else {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Arg = arg
			}
			if err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		return nil, p.errf("unexpected keyword %q", t.text)
	case tokIdent:
		p.pos++
		id := &Ident{Name: t.text}
		if p.accept(tokSymbol, ".") {
			if p.cur().kind != tokIdent {
				return nil, p.errf("expected column after %q.", t.text)
			}
			id.Qualifier = t.text
			id.Name = p.next().text
		}
		return id, nil
	case tokSymbol:
		if t.text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q", t.text)
}
