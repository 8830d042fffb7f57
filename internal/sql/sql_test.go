package sql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// testCatalog serves two tables: orders and customers.
func testCatalog() (Catalog, *engine.Context) {
	orders := table.New(table.NewSchema(
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
		{1, 10, 99.5, "open"}, {2, 10, 20.0, "done"}, {3, 11, 5.0, "open"},
		{4, 12, 70.0, "done"}, {5, 12, 30.0, "done"},
	}
	for _, r := range rows {
		_ = orders.AppendRow(table.IntValue(r.id), table.IntValue(r.cust), table.FloatValue(r.total), table.StrValue(r.status))
	}
	customers := table.New(table.NewSchema(
		table.Column{Name: "c_id", Type: table.Int},
		table.Column{Name: "c_name", Type: table.Str},
	))
	for _, r := range []struct {
		id   int64
		name string
	}{{10, "ann"}, {11, "bob"}, {12, "cid"}} {
		_ = customers.AppendRow(table.IntValue(r.id), table.StrValue(r.name))
	}
	tabs := map[string]*table.Table{"orders": orders, "customers": customers}
	cat := CatalogFunc(func(name string) (table.Schema, error) {
		t, ok := tabs[name]
		if !ok {
			return table.Schema{}, fmt.Errorf("no table %q", name)
		}
		return t.Schema, nil
	})
	ctx := &engine.Context{Resolve: func(name string) (*table.Table, error) {
		t, ok := tabs[name]
		if !ok {
			return nil, fmt.Errorf("no table %q", name)
		}
		return t, nil
	}}
	return cat, ctx
}

func runSQL(t *testing.T, q string) *table.Table {
	t.Helper()
	cat, ctx := testCatalog()
	plan, _, err := PlanString(q, cat)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	out, err := plan.Run(ctx)
	if err != nil {
		t.Fatalf("run %q: %v", q, err)
	}
	return out
}

func TestParseCreateMaterializedView(t *testing.T) {
	stmt, err := Parse("CREATE MATERIALIZED VIEW mv1 AS SELECT o_id FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.CreateView != "mv1" || len(stmt.Select.Items) != 1 {
		t.Fatalf("stmt = %+v", stmt)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t JOIN",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP a",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t LIMIT",
		"CREATE MATERIALIZED mv AS SELECT a FROM t",
		"SELECT 'unterminated FROM t",
		"SELECT a FROM t; SELECT b FROM t",
		"SELECT a@b FROM t",
		"SELECT SUM(*) FROM t",
		"SELECT 1x FROM t",
		"SELECT 1e FROM t",
		"SELECT 1e+ FROM t",
		"SELECT 2.5e3x FROM t",
		"SELECT 1e400 FROM t",
		"SELECT a FROM t LIMIT 1e3",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

// TestParseUTF8 pins that the lexer reads its input as UTF-8 runes: an
// identifier may be a letter of any script, Unicode white space (no-break
// space, NEL) separates tokens, a number running into a letter names that
// letter, invalid UTF-8 fails at its offset, and a string literal's token
// sits at its opening quote.
func TestParseUTF8(t *testing.T) {
	item := func(q string) Expr {
		t.Helper()
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if sel := stmt.Select; len(sel.Items) != 1 || sel.From.Name != "t" || sel.From.Alias != "" {
			t.Fatalf("%q: items %+v from %+v", q, sel.Items, sel.From)
		}
		return stmt.Select.Items[0].Expr
	}
	if e := item("SELECT é FROM t"); !reflect.DeepEqual(e, &Ident{Name: "é"}) {
		t.Errorf("SELECT é: item %#v", e)
	}
	if e := item("SELECT a\u00a0FROM t"); !reflect.DeepEqual(e, &Ident{Name: "a"}) {
		t.Errorf("SELECT a<NBSP>FROM: item %#v", e)
	}
	if e := item("SELECT 1\u0085FROM t"); !reflect.DeepEqual(e, &NumLit{I: 1}) {
		t.Errorf("SELECT 1<NEL>FROM: item %#v", e)
	}
	for q, want := range map[string]string{
		"SELECT 1é FROM t":     `runs into 'é' at offset 8`,
		"SELECT \xff FROM t":   "invalid UTF-8 at offset 7",
		"SELECT a FROM t\xc3":  "invalid UTF-8 at offset 15",
		"SELECT '\xe9' FROM t": "invalid UTF-8 at offset 8",
		"SELECT a·b FROM t":    `unexpected character '·' at offset 8`,
	} {
		if _, err := Parse(q); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want it to say %q", q, err, want)
		}
	}
	toks, err := lex("SELECT 'it''s' FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if tok := toks[1]; tok.kind != tokString || tok.text != "it's" || tok.pos != 7 {
		t.Fatalf("string token %+v, want it's at its opening quote, offset 7", tok)
	}
}

func TestSelectStar(t *testing.T) {
	out := runSQL(t, "SELECT * FROM orders")
	if out.NumRows() != 5 || out.Schema.NumCols() != 4 {
		t.Fatalf("got %d rows %d cols", out.NumRows(), out.Schema.NumCols())
	}
}

func TestSelectWhereProject(t *testing.T) {
	out := runSQL(t, "SELECT o_id, o_total * 2 AS dbl FROM orders WHERE o_status = 'done' AND o_total >= 30")
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", out.NumRows())
	}
	if out.Schema.Cols[1].Name != "dbl" {
		t.Fatalf("alias = %q", out.Schema.Cols[1].Name)
	}
	if out.Cols[1].Floats[0] != 140 {
		t.Fatalf("dbl[0] = %v", out.Cols[1].Floats[0])
	}
}

func TestJoinWithQualifiedNames(t *testing.T) {
	out := runSQL(t, `SELECT o.o_id, c.c_name FROM orders o JOIN customers c ON o.o_cust = c.c_id WHERE c.c_name <> 'bob'`)
	if out.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", out.NumRows())
	}
	if out.Schema.Cols[1].Name != "c_name" {
		t.Fatalf("schema = %s", out.Schema)
	}
}

func TestJoinResidualPredicate(t *testing.T) {
	// Join with an extra non-equi conjunct: o_total > 25 moves to a filter.
	out := runSQL(t, `SELECT o_id FROM orders o JOIN customers c ON o.o_cust = c.c_id AND o.o_total > 25`)
	// Customers present: 10,11,12. Orders with total > 25: id 1 (cust 10),
	// id 4 and id 5 (cust 12) — three rows survive the residual filter.
	if out.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", out.NumRows())
	}
}

func TestJoinWithoutEquiKeyRejected(t *testing.T) {
	cat, _ := testCatalog()
	_, _, err := PlanString(`SELECT o_id FROM orders o JOIN customers c ON o.o_total > 25`, cat)
	if err == nil {
		t.Fatal("non-equi join accepted")
	}
}

func TestGroupByAggregates(t *testing.T) {
	out := runSQL(t, `SELECT o_cust, COUNT(*) AS n, SUM(o_total) AS total, AVG(o_total) AS avg_total
		FROM orders GROUP BY o_cust ORDER BY total DESC`)
	if out.NumRows() != 3 {
		t.Fatalf("groups = %d", out.NumRows())
	}
	// Sorted by total desc: cust 10 (119.5), cust 12 (100), cust 11 (5).
	if out.Cols[0].Ints[0] != 10 || out.Cols[0].Ints[1] != 12 || out.Cols[0].Ints[2] != 11 {
		t.Fatalf("order: %v", out.Cols[0].Ints)
	}
	if out.Cols[1].Ints[0] != 2 || out.Cols[2].Floats[0] != 119.5 {
		t.Fatalf("agg row: %v", out.Row(0))
	}
	if out.Cols[3].Floats[2] != 5 {
		t.Fatalf("avg: %v", out.Cols[3].Floats)
	}
}

func TestSelectOrderInterleavesKeysAndAggs(t *testing.T) {
	out := runSQL(t, `SELECT COUNT(*) AS n, o_cust FROM orders GROUP BY o_cust`)
	if out.Schema.Cols[0].Name != "n" || out.Schema.Cols[1].Name != "o_cust" {
		t.Fatalf("schema = %s", out.Schema)
	}
	if out.Schema.Cols[0].Type != table.Int {
		t.Fatalf("count type = %s", out.Schema.Cols[0].Type)
	}
}

func TestUngroupedColumnRejected(t *testing.T) {
	cat, _ := testCatalog()
	_, _, err := PlanString(`SELECT o_id, COUNT(*) FROM orders GROUP BY o_cust`, cat)
	if err == nil {
		t.Fatal("ungrouped column accepted")
	}
}

func TestGlobalAggregate(t *testing.T) {
	out := runSQL(t, `SELECT COUNT(*) AS n, MIN(o_total) AS lo, MAX(o_total) AS hi FROM orders`)
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if out.Cols[0].Ints[0] != 5 || out.Cols[1].Floats[0] != 5.0 || out.Cols[2].Floats[0] != 99.5 {
		t.Fatalf("row = %v", out.Row(0))
	}
}

func TestInListQuery(t *testing.T) {
	out := runSQL(t, `SELECT o_id FROM orders WHERE o_cust IN (10, 11)`)
	if out.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", out.NumRows())
	}
	out = runSQL(t, `SELECT o_id FROM orders WHERE o_cust NOT IN (10, 11)`)
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", out.NumRows())
	}
	out = runSQL(t, `SELECT o_id FROM orders WHERE o_cust - 11 IN (-1, 1)`)
	if out.NumRows() != 4 {
		t.Fatalf("negative literals: rows = %d, want 4", out.NumRows())
	}
}

func TestLimitAndOrderBy(t *testing.T) {
	out := runSQL(t, `SELECT o_id, o_total FROM orders ORDER BY o_total DESC LIMIT 2`)
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if out.Cols[0].Ints[0] != 1 || out.Cols[0].Ints[1] != 4 {
		t.Fatalf("top ids = %v", out.Cols[0].Ints)
	}
}

func TestAmbiguousColumnRejected(t *testing.T) {
	cat, _ := testCatalog()
	// Self-join makes o_id ambiguous.
	_, _, err := PlanString(`SELECT o_id FROM orders a JOIN orders b ON a.o_id = b.o_id`, cat)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownColumnAndTableRejected(t *testing.T) {
	cat, _ := testCatalog()
	if _, _, err := PlanString(`SELECT nope FROM orders`, cat); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, _, err := PlanString(`SELECT x FROM missing`, cat); err == nil {
		t.Fatal("unknown table accepted")
	}
}

// TestPlanLeavesStatementUnchanged: a workload parses each node once and
// plans that one statement on every run, against whatever schemas its
// inputs have then, so Plan must not change the statement it lowers.
func TestPlanLeavesStatementUnchanged(t *testing.T) {
	const q = `SELECT c.c_name, COUNT(*) AS n, SUM(o.o_total) AS total FROM orders o
		JOIN customers c ON o.o_cust = c.c_id
		WHERE o.o_status IN ('open', 'done') AND NOT o.o_total < 1
		GROUP BY c.c_name ORDER BY total DESC LIMIT 2`
	first, _ := testCatalog()
	// The same tables with their columns in another order and o_total an
	// INT: every column index and one type of the plan differ.
	second := CatalogFunc(func(name string) (table.Schema, error) {
		switch name {
		case "orders":
			return table.NewSchema(
				table.Column{Name: "o_status", Type: table.Str},
				table.Column{Name: "o_total", Type: table.Int},
				table.Column{Name: "o_cust", Type: table.Int},
				table.Column{Name: "o_id", Type: table.Int},
			), nil
		case "customers":
			return table.NewSchema(
				table.Column{Name: "c_name", Type: table.Str},
				table.Column{Name: "c_id", Type: table.Int},
			), nil
		}
		return table.Schema{}, fmt.Errorf("no table %q", name)
	})
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	var plans []engine.Node
	for _, cat := range []Catalog{first, second, first} {
		got, _, err := Plan(stmt, cat)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := PlanString(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() || !reflect.DeepEqual(got, want) {
			t.Fatalf("plan of a planned statement:\n%s\nplan of a fresh parse:\n%s", got, want)
		}
		plans = append(plans, got)
	}
	if reflect.DeepEqual(plans[0], plans[1]) {
		t.Fatal("the two catalogs give one plan; the test cannot tell them apart")
	}
	if fresh, _ := Parse(q); !reflect.DeepEqual(stmt, fresh) {
		t.Fatalf("planning changed the statement:\n%+v\nfresh parse:\n%+v", stmt.Select, fresh.Select)
	}
}

func TestUnaryMinusAndComments(t *testing.T) {
	out := runSQL(t, "SELECT o_id FROM orders -- trailing comment\nWHERE o_total > -1")
	if out.NumRows() != 5 {
		t.Fatalf("rows = %d", out.NumRows())
	}
}

func TestEscapedStringLiteral(t *testing.T) {
	stmt, err := Parse(`SELECT o_id FROM orders WHERE o_status = 'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	cmp := stmt.Select.Where.(*BinExpr)
	if cmp.R.(*StrLit).S != "it's" {
		t.Fatalf("literal = %q", cmp.R.(*StrLit).S)
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	out := runSQL(t, `SELECT a.o_id AS left_id, b.o_id AS right_id
		FROM orders a JOIN orders b ON a.o_cust = b.o_cust WHERE a.o_id < b.o_id`)
	// Pairs within same customer: (1,2) for cust 10, (4,5) for cust 12.
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", out.NumRows())
	}
}

// TestJoinResidualConjunctsStayShallow: however many residual conjuncts an
// ON condition holds, their filter is a balanced AND, so planning and
// evaluating it recurse only logarithmically deep in their number.
func TestJoinResidualConjunctsStayShallow(t *testing.T) {
	var conj func(n int) string
	conj = func(n int) string {
		if n == 1 {
			return "o.o_total > 25"
		}
		return "(" + conj(n/2) + " AND " + conj(n-n/2) + ")"
	}
	q := `SELECT o_id FROM orders o JOIN customers c ON o.o_cust = c.c_id AND ` + conj(4096)
	cat, ctx := testCatalog()
	plan, _, err := PlanString(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Run(ctx)
	if err != nil || out.NumRows() != 3 {
		t.Fatalf("rows = %v, %v; want 3", out, err)
	}
	var depth func(e engine.Expr) int
	depth = func(e engine.Expr) int {
		if b, ok := e.(*engine.Bin); ok {
			return 1 + max(depth(b.L), depth(b.R))
		}
		return 1
	}
	filter := plan.(*engine.Project).Input.(*engine.Filter)
	if d := depth(filter.Pred); d > 14 {
		t.Fatalf("4096 conjuncts planned %d levels deep, want at most 14", d)
	}
}
