package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
)

// refSortLimit is Sort and Limit as they were before a Limit over a Sort
// kept a heap: a stable sort of boxed values by Value.Compare, then the
// first limit rows (all when negative).
func refSortLimit(in *table.Table, keys []SortKey, limit int) *table.Table {
	idx := make([]int, in.NumRows())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for _, k := range keys {
			c, _ := in.Cols[k.Col].Value(idx[a]).Compare(in.Cols[k.Col].Value(idx[b]))
			if c != 0 {
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if limit >= 0 && limit < len(idx) {
		idx = idx[:limit]
	}
	return in.Gather(idx)
}

// sortTestTable builds n rows of every key shape the sort distinguishes:
// INTs with heavy ties, INTs above 2^53 that tie as float64, FLOATs with
// ties and signed zeros, STRINGs with ties, FLOATs holding NaNs, and a
// payload column recording the input row.
func sortTestTable(rng *rand.Rand, n int) *table.Table {
	tb := table.New(table.NewSchema(
		table.Column{Name: "i", Type: table.Int},
		table.Column{Name: "big", Type: table.Int},
		table.Column{Name: "f", Type: table.Float},
		table.Column{Name: "s", Type: table.Str},
		table.Column{Name: "nan", Type: table.Float},
		table.Column{Name: "row", Type: table.Int},
	))
	floats := []float64{-1.5, -0.0, 0, 2.25, 7, math.Inf(1), math.Inf(-1)}
	words := []string{"", "a", "ab", "b", "Books", "é"}
	for r := 0; r < n; r++ {
		nan := float64(rng.Intn(5))
		if rng.Intn(4) == 0 {
			nan = math.NaN()
		}
		_ = tb.AppendRow(
			table.IntValue(int64(rng.Intn(6)-3)),
			table.IntValue(1<<60+int64(rng.Intn(4))), // float64 cannot tell these apart
			table.FloatValue(floats[rng.Intn(len(floats))]),
			table.StrValue(words[rng.Intn(len(words))]),
			table.FloatValue(nan),
			table.IntValue(int64(r)),
		)
	}
	return tb
}

// sameTable compares two tables value by value, floats by bit pattern.
func sameTable(a, b *table.Table) error {
	if a.NumRows() != b.NumRows() {
		return fmt.Errorf("%d rows, want %d", a.NumRows(), b.NumRows())
	}
	for c := range a.Cols {
		for r := 0; r < a.NumRows(); r++ {
			x, y := a.Cols[c].Value(r), b.Cols[c].Value(r)
			if x.Type != y.Type || x.I != y.I || x.S != y.S || math.Float64bits(x.F) != math.Float64bits(y.F) {
				return fmt.Errorf("column %d row %d: %v, want %v", c, r, x, y)
			}
		}
	}
	return nil
}

// TestSortLimitMatchesStableSort compares Limit over Sort — a top-k heap
// below the row count, the typed total order otherwise, the boxed stable
// sort when a FLOAT key holds a NaN — and a bare Sort with the boxed stable
// sort followed by Limit, row for row, over every key type, multi-key
// ASC/DESC orders, and limits of none, 0, 1, a few, half, all and more than
// all, on empty and non-empty inputs.
func TestSortLimitMatchesStableSort(t *testing.T) {
	keySets := [][]SortKey{
		{{Col: 0}},
		{{Col: 0, Desc: true}},
		{{Col: 1}},
		{{Col: 1, Desc: true}, {Col: 0}},
		{{Col: 2}},
		{{Col: 2, Desc: true}},
		{{Col: 3}},
		{{Col: 3, Desc: true}, {Col: 2}},
		{{Col: 0}, {Col: 3, Desc: true}, {Col: 2}},
		{{Col: 4}},
		{{Col: 0}, {Col: 4, Desc: true}},
	}
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{0, 1, 2, 7, 64, 500} {
		tb := sortTestTable(rng, n)
		ctx := fixedResolver(map[string]*table.Table{"t": tb})
		for _, keys := range keySets {
			for _, limit := range []int{-1, 0, 1, 3, n / 2, n - 1, n, n + 10} {
				var node Node = &Sort{Input: &Scan{Name: "t", Sch: tb.Schema}, Keys: keys}
				if limit >= 0 {
					node = &Limit{Input: node, N: limit}
				}
				got, err := node.Run(ctx)
				if err != nil {
					t.Fatalf("n=%d keys=%v limit=%d: %v", n, keys, limit, err)
				}
				if err := sameTable(got, refSortLimit(tb, keys, limit)); err != nil {
					t.Fatalf("n=%d keys=%v limit=%d: %v", n, keys, limit, err)
				}
			}
		}
	}
	// A negative Limit passes no rows, over a Sort as over any input.
	tb := sortTestTable(rng, 10)
	neg := &Limit{Input: &Sort{Input: &Scan{Name: "t", Sch: tb.Schema}, Keys: keySets[0]}, N: -1}
	got, err := neg.Run(fixedResolver(map[string]*table.Table{"t": tb}))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 {
		t.Fatalf("Limit(-1) over Sort: %d rows, want 0", got.NumRows())
	}
}

// BenchmarkSortLimit orders 18,037 FLOAT keys and keeps 100, the shape of
// an ORDER BY … LIMIT over a grouped result.
func BenchmarkSortLimit(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tb := table.New(table.NewSchema(
		table.Column{Name: "k", Type: table.Int},
		table.Column{Name: "v", Type: table.Float},
	))
	for r := 0; r < 18037; r++ {
		_ = tb.AppendRow(table.IntValue(int64(r)), table.FloatValue(float64(rng.Intn(1_000_000))/100))
	}
	ctx := fixedResolver(map[string]*table.Table{"t": tb})
	s := &Limit{Input: &Sort{Input: &Scan{Name: "t", Sch: tb.Schema}, Keys: []SortKey{{Col: 1, Desc: true}}}, N: 100}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
