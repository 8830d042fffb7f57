package chunkio

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

// gather returns the rows of src selected by sel (nil = all), per column.
func gather(src *table.Table, sel []int) *table.Table {
	out := table.New(src.Schema)
	n := src.NumRows()
	rows := sel
	if rows == nil {
		rows = make([]int, n)
		for i := range rows {
			rows[i] = i
		}
	}
	for ci := range src.Cols {
		for _, r := range rows {
			v := src.Cols[ci].Value(r)
			switch src.Cols[ci].Type {
			case table.Int:
				out.Cols[ci].Ints = append(out.Cols[ci].Ints, v.I)
			case table.Float:
				out.Cols[ci].Floats = append(out.Cols[ci].Floats, v.F)
			default:
				out.Cols[ci].Strs = append(out.Cols[ci].Strs, v.S)
			}
		}
	}
	return out
}

func mustEqualTables(t *testing.T, desc string, want, got *table.Table) {
	t.Helper()
	if want.NumRows() != got.NumRows() || !want.Schema.Equal(got.Schema) {
		t.Fatalf("%s: shape differs: want %d rows %v, got %d rows %v",
			desc, want.NumRows(), want.Schema, got.NumRows(), got.Schema)
	}
	for r := 0; r < want.NumRows(); r++ {
		for c := range want.Cols {
			if want.Cols[c].Value(r) != got.Cols[c].Value(r) {
				t.Fatalf("%s: row %d col %d: want %v, got %v",
					desc, r, c, want.Cols[c].Value(r), got.Cols[c].Value(r))
			}
		}
	}
}

// feedGroup appends one row group of a compressed table to the builder the
// way the join kernel assembles its output: dictionary chunks as remapped
// codes (as values once the column has left code space), run-length chunks
// value by value, everything else as a decoded vector. sel lists the
// selected local rows ascending; nil selects all.
func feedGroup(t *testing.T, b *Builder, ct *encoding.Compressed, group int, sel []int32) {
	t.Helper()
	for ci := range ct.Cols {
		ch := ct.Cols[ci][group]
		typ := ct.Schema.Cols[ci].Type
		rows := sel
		if rows == nil {
			for i := 0; i < ch.Rows; i++ {
				rows = append(rows, int32(i))
			}
		}
		if ch.Codec == encoding.Dict {
			dv, err := encoding.ParseDict(ch, typ)
			if err != nil {
				t.Fatalf("feed column %d: %v", ci, err)
			}
			codes, err := dv.Codes()
			if err != nil {
				t.Fatalf("feed column %d: %v", ci, err)
			}
			ids, inCode := b.Remap(ci, dv)
			for _, i := range rows {
				if inCode {
					b.AppendCode(ci, ids[codes[i]])
				} else {
					b.AppendValue(ci, dv.Value(int(codes[i])))
				}
			}
			continue
		}
		vec, err := encoding.DecodeChunk(ch, typ)
		if err != nil {
			t.Fatalf("feed column %d: %v", ci, err)
		}
		if ch.Codec == encoding.RLE {
			for _, i := range rows {
				b.AppendValue(ci, vec.Value(int(i)))
			}
		} else if err := b.AppendVector(ci, vec, sel); err != nil {
			t.Fatalf("feed column %d: %v", ci, err)
		}
	}
}

func threeColTable(n int, card int) *table.Table {
	tb := table.New(table.NewSchema(
		table.Column{Name: "s", Type: table.Str},
		table.Column{Name: "i", Type: table.Int},
		table.Column{Name: "f", Type: table.Float},
	))
	for r := 0; r < n; r++ {
		tb.Cols[0].Strs = append(tb.Cols[0].Strs, fmt.Sprintf("cat-%d", r%card))
		tb.Cols[1].Ints = append(tb.Cols[1].Ints, int64(r%card))
		tb.Cols[2].Floats = append(tb.Cols[2].Floats, float64(r%7)/2)
	}
	return tb
}

func TestBuilderGatherSelections(t *testing.T) {
	src := threeColTable(400, 5)
	ct, err := encoding.FromTable(src, encoding.Options{ChunkRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Select every third row; group 1 entirely empty.
	var global []int
	b := NewBuilder(src.Schema, encoding.Options{ChunkRows: 100}, nil, "")
	base := 0
	for g, rows := range ct.RowGroups() {
		var sel []int32
		if g != 1 {
			for i := 0; i < rows; i += 3 {
				sel = append(sel, int32(i))
				global = append(global, base+i)
			}
		}
		if len(sel) > 0 {
			feedGroup(t, b, ct, g, sel)
		}
		base += rows
	}
	out, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.Table()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualTables(t, "gather", gather(src, global), got)
	if b.Counters.CodeChunks == 0 {
		t.Fatalf("counters = %+v: dictionary gathers should stay in code space", b.Counters)
	}
}

func TestBuilderEmptyOutput(t *testing.T) {
	sch := table.NewSchema(table.Column{Name: "x", Type: table.Int})
	b := NewBuilder(sch, encoding.Options{}, nil, "")
	out, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if out.NRows != 0 || len(out.Cols) != 1 || len(out.Cols[0]) != 0 {
		t.Fatalf("empty builder produced %+v", out)
	}
	if out.RowGroups() == nil {
		t.Fatal("empty output must still report aligned (empty) row groups")
	}
}

func TestBuilderDictOverflowMidBuild(t *testing.T) {
	// A session capped at 8 entries overflows on the second 5-row chunk of a
	// 100-row append of 20 distinct strings: the column must convert its
	// pending codes to values and finish in value space, byte-identically.
	sess := NewSession()
	sess.MaxEntries = 8
	src := threeColTable(100, 20)
	ct, err := encoding.FromTable(src, encoding.Options{ChunkRows: 5})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(src.Schema, encoding.Options{ChunkRows: 100}, sess, "n")
	for g := range ct.RowGroups() {
		feedGroup(t, b, ct, g, nil)
	}
	out, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.Table()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualTables(t, "overflow", src, got)
	if b.Counters.Reencoded == 0 {
		t.Fatalf("counters = %+v: overflow must fall back to re-encoding", b.Counters)
	}
}

func TestBuilderRLEHeavy(t *testing.T) {
	tb := table.New(table.NewSchema(
		table.Column{Name: "k", Type: table.Str},
		table.Column{Name: "f", Type: table.Float},
	))
	for r := 0; r < 300; r++ {
		tb.Cols[0].Strs = append(tb.Cols[0].Strs, fmt.Sprintf("run-%d", r/75))
		tb.Cols[1].Floats = append(tb.Cols[1].Floats, float64(r/150))
	}
	ct, err := encoding.FromTable(tb, encoding.Options{ChunkRows: 150})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(tb.Schema, encoding.Options{ChunkRows: 150}, nil, "")
	var sel []int32
	var global []int
	for i := 0; i < 150; i += 2 {
		sel = append(sel, int32(i))
	}
	for g, rows := range ct.RowGroups() {
		feedGroup(t, b, ct, g, sel)
		for i := 0; i < rows; i += 2 {
			global = append(global, g*150+i)
		}
	}
	out, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.Table()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualTables(t, "rle", gather(tb, global), got)
}

func TestSessionDictReuseAcrossRuns(t *testing.T) {
	sess := NewSession()
	src := threeColTable(256, 6)
	ct, err := encoding.FromTable(src, encoding.Options{ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	run := func() Counters {
		sess.BeginRun()
		b := NewBuilder(src.Schema, encoding.Options{ChunkRows: 64}, sess, "node#1")
		for g := range ct.RowGroups() {
			feedGroup(t, b, ct, g, nil)
		}
		out, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		got, err := out.Table()
		if err != nil {
			t.Fatal(err)
		}
		mustEqualTables(t, "session run", src, got)
		if out.RawBytes != src.ByteSize() {
			t.Fatalf("RawBytes = %d, want %d", out.RawBytes, src.ByteSize())
		}
		if out.RowGroups() == nil {
			t.Fatal("builder output has misaligned row groups")
		}
		return b.Counters
	}
	first := run()
	if first.DictReused != 0 {
		t.Fatalf("first run reports DictReused = %d before any cache exists", first.DictReused)
	}
	second := run()
	if second.DictReused == 0 {
		t.Fatalf("second run counters = %+v: recurring refresh should reuse yesterday's dictionaries", second)
	}
}

func TestSessionInvalidatesOnSchemaDrift(t *testing.T) {
	sess := NewSession()
	sess.BeginRun()
	a := sess.shared("n", 0, table.Column{Name: "x", Type: table.Str}, 0)
	a.Add(table.StrValue("v"))
	// Same slot, same name, new type: the cached dictionary must not leak.
	b := sess.shared("n", 0, table.Column{Name: "x", Type: table.Int}, 0)
	if b.Len() != 0 {
		t.Fatal("type drift kept the stale dictionary")
	}
	c := sess.shared("n", 0, table.Column{Name: "renamed", Type: table.Int}, 0)
	if c == b {
		t.Fatal("column rename kept the stale dictionary")
	}
}

func TestBuilderMisalignedColumnsError(t *testing.T) {
	sch := table.NewSchema(
		table.Column{Name: "a", Type: table.Int},
		table.Column{Name: "b", Type: table.Int},
	)
	b := NewBuilder(sch, encoding.Options{}, nil, "")
	b.AppendValue(0, table.IntValue(1))
	if _, err := b.Finish(); err == nil {
		t.Fatal("columns out of step must not silently finish")
	}
}

// TestDifferentialBuilder drives random tables, chunk layouts and
// selections through the builder and requires the decoded output to equal
// a direct gather of the source rows.
func TestDifferentialBuilder(t *testing.T) {
	iters := 150
	if testing.Short() {
		iters = 30
	}
	types := []table.Type{table.Int, table.Float, table.Str}
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		nCols := 1 + rng.Intn(3)
		cols := make([]table.Column, nCols)
		for c := range cols {
			cols[c] = table.Column{Name: fmt.Sprintf("c%d", c), Type: types[rng.Intn(len(types))]}
		}
		n := rng.Intn(600)
		tb := table.New(table.NewSchema(cols...))
		for r := 0; r < n; r++ {
			for c := range cols {
				switch cols[c].Type {
				case table.Int:
					tb.Cols[c].Ints = append(tb.Cols[c].Ints, int64(rng.Intn(1+rng.Intn(1000))))
				case table.Float:
					tb.Cols[c].Floats = append(tb.Cols[c].Floats, float64(rng.Intn(40))/4)
				default:
					tb.Cols[c].Strs = append(tb.Cols[c].Strs, fmt.Sprintf("v%d", rng.Intn(1+rng.Intn(200))))
				}
			}
		}
		chunkRows := 1 + rng.Intn(200)
		ct, err := encoding.FromTable(tb, encoding.Options{ChunkRows: chunkRows})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var sess *Session
		if rng.Intn(2) == 0 {
			sess = NewSession()
			if rng.Intn(3) == 0 {
				sess.MaxEntries = 1 + rng.Intn(32) // force overflows
			}
			sess.BeginRun()
		}
		b := NewBuilder(tb.Schema, encoding.Options{ChunkRows: 1 + rng.Intn(300)}, sess, "p#1")
		global := []int{} // non-nil: gather(nil) means every row
		base := 0
		for g, rows := range ct.RowGroups() {
			mode := rng.Intn(4)
			switch {
			case mode == 0: // whole group selected
				feedGroup(t, b, ct, g, nil)
				for i := 0; i < rows; i++ {
					global = append(global, base+i)
				}
			case mode == 1: // empty selection
			default:
				var sel []int32
				for i := 0; i < rows; i++ {
					if rng.Intn(3) > 0 {
						sel = append(sel, int32(i))
						global = append(global, base+i)
					}
				}
				if len(sel) > 0 {
					feedGroup(t, b, ct, g, sel)
				}
			}
			base += rows
		}
		out, err := b.Finish()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("seed %d: invalid output: %v", seed, err)
		}
		if out.RowGroups() == nil {
			t.Fatalf("seed %d: misaligned output row groups", seed)
		}
		got, err := out.Table()
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		mustEqualTables(t, fmt.Sprintf("seed %d", seed), gather(tb, global), got)
	}
}
