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

// pick returns the rows of vec at the given indexes, as a new vector.
func pick(vec *table.Vector, rows []int32) *table.Vector {
	out := &table.Vector{Type: vec.Type}
	for _, i := range rows {
		_ = out.Append(vec.Value(int(i)))
	}
	return out
}

// feedGroup appends one row group of a compressed table to the builder the
// way the join kernel assembles its output: dictionary chunks as remapped
// codes (as gathered values once the column has left code space),
// everything else as a gathered decoded vector. sel lists the selected
// local rows ascending; nil selects all. perValue appends the values one at
// a time through perValueAppend instead of in bulk.
func feedGroup(t *testing.T, b *Builder, ct *encoding.Compressed, group int, sel []int32, perValue bool) {
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
		vec, err := encoding.DecodeChunk(ch, typ)
		if err != nil {
			t.Fatalf("feed column %d: %v", ci, err)
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
			if ids, inCode := b.Remap(ci, dv); inCode {
				for _, i := range rows {
					b.AppendCode(ci, ids[codes[i]])
				}
				continue
			}
		}
		picked := pick(vec, rows)
		if perValue {
			for i := 0; i < picked.Len(); i++ {
				perValueAppend(b, ci, picked.Value(i))
			}
		} else if err := b.AppendVector(ci, picked); err != nil {
			t.Fatalf("feed column %d: %v", ci, err)
		}
	}
}

// perValueAppend is the value-at-a-time append AppendVector replaced, kept
// as its reference.
func perValueAppend(b *Builder, ci int, v table.Value) {
	cb := &b.cols[ci]
	b.raw += valueSizeOf(v)
	b.materializePending(cb)
	appendToVec(cb.vals, v)
}

// mustEqualBuilds requires two builders fed the same rows, one in bulk and
// one value at a time, to have finished byte-identically.
func mustEqualBuilds(t *testing.T, desc string, bulk, perValue *Builder, got, want *encoding.Compressed) {
	t.Helper()
	if bulk.Counters != perValue.Counters {
		t.Fatalf("%s: counters bulk %+v, per value %+v", desc, bulk.Counters, perValue.Counters)
	}
	if got.NRows != want.NRows || got.RawBytes != want.RawBytes {
		t.Fatalf("%s: bulk %d rows %d raw B, per value %d rows %d raw B", desc, got.NRows, got.RawBytes, want.NRows, want.RawBytes)
	}
	for c := range want.Cols {
		for k, w := range want.Cols[c] {
			g := got.Cols[c][k]
			if g.Codec != w.Codec || g.Rows != w.Rows || string(g.Data) != string(w.Data) {
				t.Fatalf("%s: column %d chunk %d: bulk %s/%d rows, per value %s/%d rows", desc, c, k, g.Codec, g.Rows, w.Codec, w.Rows)
			}
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
	b := NewBuilder(src.Schema, encoding.Options{ChunkRows: 100})
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
			feedGroup(t, b, ct, g, sel, false)
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
	b := NewBuilder(sch, encoding.Options{})
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
	// An output dictionary capped at 8 entries overflows on the second 5-row
	// chunk of a 100-row append of 20 distinct strings: the column must
	// convert its pending codes to values and finish in value space,
	// byte-identically.
	src := threeColTable(100, 20)
	ct, err := encoding.FromTable(src, encoding.Options{ChunkRows: 5})
	if err != nil {
		t.Fatal(err)
	}
	b := newBuilder(src.Schema, encoding.Options{ChunkRows: 100}, 8)
	for g := range ct.RowGroups() {
		feedGroup(t, b, ct, g, nil, false)
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
	b := NewBuilder(tb.Schema, encoding.Options{ChunkRows: 150})
	var sel []int32
	var global []int
	for i := 0; i < 150; i += 2 {
		sel = append(sel, int32(i))
	}
	for g, rows := range ct.RowGroups() {
		feedGroup(t, b, ct, g, sel, false)
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

func TestBuilderMisalignedColumnsError(t *testing.T) {
	sch := table.NewSchema(
		table.Column{Name: "a", Type: table.Int},
		table.Column{Name: "b", Type: table.Int},
	)
	b := NewBuilder(sch, encoding.Options{})
	if err := b.AppendVector(0, &table.Vector{Type: table.Int, Ints: []int64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finish(); err == nil {
		t.Fatal("columns out of step must not silently finish")
	}
}

// checkBuilds feeds the selected rows of every row group (sels[g]: nil for
// the whole group, empty to skip it) to a bulk builder and a per-value one,
// both with output dictionaries capped at maxEntries, and requires their
// outputs to be byte-identical and to decode to exactly the selected rows
// (global).
func checkBuilds(t *testing.T, desc string, tb *table.Table, ct *encoding.Compressed, sels [][]int32, global []int, opts encoding.Options, maxEntries int) {
	t.Helper()
	bulk := newBuilder(tb.Schema, opts, maxEntries)
	perValue := newBuilder(tb.Schema, opts, maxEntries)
	for g, sel := range sels {
		if sel == nil || len(sel) > 0 {
			feedGroup(t, bulk, ct, g, sel, false)
			feedGroup(t, perValue, ct, g, sel, true)
		}
	}
	out, err := bulk.Finish()
	if err != nil {
		t.Fatalf("%s: %v", desc, err)
	}
	want, err := perValue.Finish()
	if err != nil {
		t.Fatalf("%s: per value: %v", desc, err)
	}
	mustEqualBuilds(t, desc, bulk, perValue, out, want)
	if err := out.Validate(); err != nil {
		t.Fatalf("%s: invalid output: %v", desc, err)
	}
	if out.RowGroups() == nil {
		t.Fatalf("%s: misaligned output row groups", desc)
	}
	got, err := out.Table()
	if err != nil {
		t.Fatalf("%s: decode: %v", desc, err)
	}
	mustEqualTables(t, desc, gather(tb, global), got)
}

// TestDifferentialBuilder drives random tables, chunk layouts and
// selections through the builder, in bulk and value by value, and requires
// identical outputs that decode to a direct gather of the source rows.
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
		maxEntries := DefaultMaxEntries
		if rng.Intn(3) == 0 {
			maxEntries = 1 + rng.Intn(32) // force overflows
		}
		opts := encoding.Options{ChunkRows: 1 + rng.Intn(300)}
		global := []int{} // non-nil: gather(nil) means every row
		var sels [][]int32
		base := 0
		for _, rows := range ct.RowGroups() {
			var sel []int32
			switch mode := rng.Intn(4); mode {
			case 0: // whole group selected
				for i := 0; i < rows; i++ {
					global = append(global, base+i)
				}
			case 1: // empty selection
				sel = []int32{}
			default:
				sel = []int32{}
				for i := 0; i < rows; i++ {
					if rng.Intn(3) > 0 {
						sel = append(sel, int32(i))
						global = append(global, base+i)
					}
				}
			}
			sels = append(sels, sel)
			base += rows
		}
		checkBuilds(t, fmt.Sprintf("seed %d", seed), tb, ct, sels, global, opts, maxEntries)
	}
}
