package sql_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/shortcircuit-db/sc/internal/sql"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

// show renders an expression fully parenthesized, so a test can read the
// tree the parser built.
func show(e sql.Expr) string {
	switch e := e.(type) {
	case *sql.Ident:
		if e.Qualifier != "" {
			return e.Qualifier + "." + e.Name
		}
		return e.Name
	case *sql.NumLit:
		if e.IsFloat {
			return fmt.Sprint(e.F)
		}
		return fmt.Sprint(e.I)
	case *sql.StrLit:
		return fmt.Sprintf("'%s'", e.S)
	case *sql.BinExpr:
		return "(" + show(e.L) + " " + e.Op + " " + show(e.R) + ")"
	case *sql.NotExpr:
		return "(NOT " + show(e.E) + ")"
	case *sql.InExpr:
		var list []string
		for _, x := range e.List {
			list = append(list, show(x))
		}
		op := " IN "
		if e.Neg {
			op = " NOT IN "
		}
		return "(" + show(e.E) + op + "(" + strings.Join(list, ", ") + "))"
	case *sql.FuncCall:
		if e.Star {
			return e.Name + "(*)"
		}
		return e.Name + "(" + show(e.Arg) + ")"
	}
	return fmt.Sprintf("?%T", e)
}

// TestPrecedenceAndAssociativity pins the tree each operator level builds:
// binary operators associate to the left, and bind OR < AND < NOT <
// comparison/IN < additive < multiplicative < unary minus.
func TestPrecedenceAndAssociativity(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"a - b - c", "((a - b) - c)"},
		{"a / b * c", "((a / b) * c)"},
		{"a + b * c - d", "((a + (b * c)) - d)"},
		{"a OR b AND c", "(a OR (b AND c))"},
		{"a OR b OR c", "((a OR b) OR c)"},
		{"a AND b AND c", "((a AND b) AND c)"},
		{"NOT a = 1 AND b = 2", "((NOT (a = 1)) AND (b = 2))"},
		{"NOT NOT a", "(NOT (NOT a))"},
		{"-a * b % c", "(((0 - a) * b) % c)"},
		{"a - -b", "(a - (0 - b))"},
		{"-(a - b)", "(0 - (a - b))"},
		{"a + b < c * d", "((a + b) < (c * d))"},
		{"a != b", "(a <> b)"},
		{"a NOT IN (1, 2)", "(a NOT IN (1, 2))"},
		{"a IN (1, 2) OR t.b = 'x'", "((a IN (1, 2)) OR (t.b = 'x'))"},
		{"SUM(a + b) * 2", "(SUM((a + b)) * 2)"},
		{"COUNT(*) - 1.5", "(COUNT(*) - 1.5)"},
	} {
		stmt, err := sql.Parse("SELECT " + tc.in + " FROM t")
		if err != nil {
			t.Errorf("%s: %v", tc.in, err)
			continue
		}
		if got := show(stmt.Select.Items[0].Expr); got != tc.want {
			t.Errorf("%s parsed as %s, want %s", tc.in, got, tc.want)
		}
	}
}

// TestExpressionDepthBound: an expression nested past sql.MaxExprDepth
// fails to parse, whichever way it nests, while one at the bound parses.
func TestExpressionDepthBound(t *testing.T) {
	parens := func(n int) string { return strings.Repeat("(", n) + "a" + strings.Repeat(")", n) }
	nots := func(n int) string { return strings.Repeat("NOT ", n) + "a" }
	minus := func(n int) string { return strings.Repeat("- ", n) + "a" }
	chain := func(n int) string { return "a" + strings.Repeat(" + a", n-1) }
	const max = sql.MaxExprDepth
	for _, tc := range []struct {
		name string
		expr string
		ok   bool
	}{
		{"10000 parentheses", parens(10000), false},
		{"10000 NOTs", nots(10000), false},
		{"10000 unary minuses", minus(10000), false},
		{"10000-term chain", chain(10000), false},
		{"10000-term chain in parentheses", "(" + chain(10000) + ")", false},
		{"parentheses at the bound", parens(max - 1), true},
		{"parentheses past the bound", parens(max), false},
		{"NOTs at the bound", nots(max - 1), true},
		{"NOTs past the bound", nots(max), false},
		{"chain at the bound", chain(max), true},
		{"chain past the bound", chain(max + 1), false},
		{"chain of comparisons past the bound", "a = " + chain(max), false},
		{"NOT at the foot of a chain past the bound", "NOT " + strings.Repeat("a AND ", max-1) + "a", false},
	} {
		_, err := sql.Parse("SELECT a FROM t WHERE " + tc.expr)
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), fmt.Sprint(max))) {
			t.Errorf("%s: err = %v, want the depth bound", tc.name, err)
		}
	}
}

// TestTPCDSViewsPlan: the depth bound leaves every TPC-DS MV plannable.
func TestTPCDSViewsPlan(t *testing.T) {
	ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	schemas := map[string]table.Schema{}
	for name, tb := range ds.Tables {
		schemas[name] = tb.Schema
	}
	cat := sql.CatalogFunc(func(name string) (table.Schema, error) {
		sch, ok := schemas[name]
		if !ok {
			return table.Schema{}, fmt.Errorf("no table %q", name)
		}
		return sch, nil
	})
	for _, n := range tpcds.RealWorkload().Nodes {
		node, _, err := sql.PlanString(n.SQL, cat)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		schemas[n.Name] = node.Schema()
	}
}

// exprDepth returns how many nodes deep e is.
func exprDepth(e sql.Expr) int {
	d := 0
	switch e := e.(type) {
	case *sql.BinExpr:
		d = max(exprDepth(e.L), exprDepth(e.R))
	case *sql.NotExpr:
		d = exprDepth(e.E)
	case *sql.InExpr:
		d = exprDepth(e.E)
		for _, x := range e.List {
			d = max(d, exprDepth(x))
		}
	case *sql.FuncCall:
		if e.Arg != nil {
			d = exprDepth(e.Arg)
		}
	}
	return d + 1
}

// FuzzParse checks that Parse never panics and that every expression of an
// accepted statement is at most sql.MaxExprDepth nodes deep.
func FuzzParse(f *testing.F) {
	for _, n := range tpcds.RealWorkload().Nodes {
		f.Add(n.SQL)
	}
	for _, q := range []string{
		"CREATE MATERIALIZED VIEW v AS SELECT a, -b AS nb FROM t x JOIN u ON x.k = u.k WHERE NOT a IN (1, 2) ORDER BY a DESC LIMIT 3;",
		"SELECT * FROM t WHERE a NOT IN ('x', 'y') OR (b - c) % 2 = 0",
		"SELECT a FROM t WHERE " + strings.Repeat("(", 300) + "a" + strings.Repeat(")", 300),
		"SELECT a FROM t WHERE " + strings.Repeat("NOT ", 300) + "a",
		"SELECT a FROM t WHERE a" + strings.Repeat(" + a", 300),
		"SELECT a FROM t WHERE NOT",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		stmt, err := sql.Parse(q)
		if err != nil {
			return
		}
		sel := stmt.Select
		exprs := append([]sql.Expr{sel.Where}, sel.GroupBy...)
		for _, it := range sel.Items {
			exprs = append(exprs, it.Expr)
		}
		for _, j := range sel.Joins {
			exprs = append(exprs, j.On)
		}
		for _, o := range sel.OrderBy {
			exprs = append(exprs, o.Expr)
		}
		for _, e := range exprs {
			if e != nil && exprDepth(e) > sql.MaxExprDepth {
				t.Fatalf("accepted an expression %d nodes deep", exprDepth(e))
			}
		}
	})
}
