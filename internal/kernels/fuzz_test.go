package kernels

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/shortcircuit-db/sc/internal/colfmt"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// FuzzPredTranslate drives the leaf compiler: an arbitrary byte string
// becomes a column, an operator and a literal. Compile either declines, or
// its chunk-level verdict (dictionary lookups or decoded values — whichever
// the auto-selected codec produces — and again with every other chunk
// rewritten as an older store's RLE chunk, decoded) must agree row for row with the
// row engine's evaluation of the same expression, and must never panic.
func FuzzPredTranslate(f *testing.F) {
	f.Add([]byte{0}, uint8(0), int64(5), false)
	f.Add([]byte{1, 1, 1, 9, 9, 200, 3}, uint8(2), int64(2), false)
	f.Add([]byte("hello world repeated strings"), uint8(4), int64(7), true)
	f.Add([]byte{255, 0, 255, 0}, uint8(6), int64(0), false)
	// Directed dictionary seeds: seven-row chunks of two alternating values,
	// first-seen out of order, which the selector dictionary-encodes; every
	// operator (6 is IN, which Compile declines) against a literal that is
	// present, absent between the entries, below the minimum and above the
	// maximum. litSeed picks both the literal and the chunk size, so search
	// for one that gives seven-row chunks.
	dictSeeds := []struct {
		data  []byte
		asStr bool
		lit   func(litSeed int64) bool // the literal litSeed yields is the wanted one
	}{
		{[]byte{13, 5, 13, 5, 13, 5, 13}, false, func(s int64) bool { return s%17-8 == 5 }},                 // present
		{[]byte{13, 5, 13, 5, 13, 5, 13}, false, func(s int64) bool { return s%17-8 == 0 }},                 // between
		{[]byte{13, 5, 13, 5, 13, 5, 13}, false, func(s int64) bool { return s%17-8 == -8 }},                // below min
		{[]byte{13, 5, 13, 5, 13, 5, 13}, false, func(s int64) bool { return s%17-8 == 8 }},                 // above max
		{[]byte("mmmbbbmmmbbbmmmbbbmmm"), true, func(s int64) bool { return s%3 == 0 }},                     // present
		{[]byte("mmmbbbmmmbbbmmmbbbmmm"), true, func(s int64) bool { return s%3 != 0 && byte(s)%26 == 2 }},  // "c": between
		{[]byte("mmmbbbmmmbbbmmmbbbmmm"), true, func(s int64) bool { return s%3 != 0 && byte(s)%26 == 0 }},  // "a": below min
		{[]byte("mmmbbbmmmbbbmmmbbbmmm"), true, func(s int64) bool { return s%3 != 0 && byte(s)%26 == 25 }}, // "z": above max
	}
	for _, ds := range dictSeeds {
		for litSeed := int64(0); litSeed < 1024; litSeed++ {
			if uint8(litSeed)%7 == 6 && ds.lit(litSeed) {
				for op := uint8(0); op < 7; op++ {
					f.Add(ds.data, op, litSeed, ds.asStr)
				}
				break
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, opByte uint8, litSeed int64, asStr bool) {
		// Build a column from the fuzz bytes.
		vec := &table.Vector{Type: table.Int}
		if asStr {
			vec.Type = table.Str
			for i := 0; i < len(data); i += 3 {
				j := i + 3
				if j > len(data) {
					j = len(data)
				}
				vec.Strs = append(vec.Strs, string(data[i:j]))
			}
		} else {
			for _, b := range data {
				vec.Ints = append(vec.Ints, int64(b)%17-8)
			}
		}
		n := vec.Len()
		sch := table.NewSchema(table.Column{Name: "c", Type: vec.Type})
		tbl := &table.Table{Schema: sch, Cols: []*table.Vector{vec}}

		var lit table.Value
		if asStr {
			lit = table.StrValue(string(rune('a' + byte(litSeed)%26)))
			if litSeed%3 == 0 && n > 0 {
				lit = table.StrValue(vec.Strs[int(uint64(litSeed)%uint64(n))])
			}
		} else {
			lit = table.IntValue(litSeed%17 - 8)
		}

		var pred engine.Expr
		cr := &engine.ColRef{Idx: 0}
		ops := []engine.BinOp{engine.OpEq, engine.OpNe, engine.OpLt, engine.OpLe, engine.OpGt, engine.OpGe}
		if opByte%7 == 6 {
			pred = &engine.InList{E: cr, List: []table.Value{lit, lit}}
		} else {
			pred = &engine.Bin{Op: ops[opByte%7%6], L: cr, R: &engine.Lit{V: lit}}
		}

		p, ok := Compile(pred, sch)
		if !ok {
			return // the row engine keeps this predicate
		}

		// Chunk the column with a size that forces multiple chunks, then
		// evaluate per chunk and compare with the row engine.
		opts := encoding.Options{ChunkRows: 1 + int(uint8(litSeed))%7}
		for _, enc := range []encChoice{{opts: opts}, {opts: opts, rleEvery: 2}} {
			ct := enc.compress(t, tbl)
			st := &Stats{}
			got := make([]bool, 0, n)
			for g, rows := range ct.RowGroups() {
				cc := newChunkCtx(ct, g, rows, st, &table.Vector{})
				bm, err := p.eval(cc)
				if err != nil {
					t.Fatalf("eval: %v", err)
				}
				for i := 0; i < rows; i++ {
					got = append(got, bm.get(i))
				}
			}
			if len(got) != n {
				t.Fatalf("evaluated %d rows, want %d", len(got), n)
			}
			for i := 0; i < n; i++ {
				v, err := pred.Eval([]table.Value{vec.Value(i)})
				if err != nil {
					t.Fatalf("row engine rejected a compiled predicate: %v", err)
				}
				if want := v.I != 0; got[i] != want {
					t.Fatalf("rleEvery %d row %d: chunk eval %v, row engine %v (pred %v, value %v)",
						enc.rleEvery, i, got[i], want, pred, vec.Value(i))
				}
			}
		}
	})
}

// FuzzJoinKeys drives the join kernel's key handling: arbitrary bytes become
// the key columns of two tables (one or two keys, each int or string, with a
// payload column each), both sides are chunked with fuzz-chosen chunk
// sizes, and the join kernel must produce byte-identical output to the row
// engine's hash join — whatever mix of dict/delta/raw key chunks the
// encoder picks, through the build table indexed by shared key id (one key;
// a unique one is probed branch-free) or by composite id (two) — and must
// never panic. keyTypes bit 0 makes the
// first key a string, bit 1 adds a second key, bit 2 makes it a string. A
// side's chunk byte picks its chunk size (low bits) and, in bits 3–4, how
// many of its chunks are rewritten as an older store's RLE chunks
// (encChoice.rleEvery).
func FuzzJoinKeys(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 9}, uint8(3), uint8(2), uint8(0))
	f.Add([]byte("abcabcxyz"), uint8(1), uint8(5), uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 7}, uint8(7), uint8(1), uint8(0))
	f.Add([]byte{255}, uint8(2), uint8(2), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint8(4), uint8(2))
	f.Add([]byte("aabbccaabbccddee"), uint8(2), uint8(6), uint8(7))
	f.Add([]byte{9, 8, 7, 9, 8, 7, 1, 1, 1, 1}, uint8(0), uint8(3), uint8(3))
	f.Add([]byte{4, 4, 4, 5, 5, 5, 6, 6}, uint8(5), uint8(0), uint8(6))
	f.Add([]byte{3, 3, 3, 3, 8, 8, 3, 3, 3, 8, 8, 8}, uint8(10), uint8(20), uint8(3))
	// Unique single keys (the branch-free probe) with probe misses, and an
	// empty build side.
	f.Add([]byte{1, 2, 3, 4, 5, 7, 0, 2, 4, 6, 8, 10}, uint8(2), uint8(1), uint8(0))
	f.Add([]byte{3, 4, 0, 0, 1, 2, 8}, uint8(1), uint8(2), uint8(1))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, chunkL, chunkR, keyTypes uint8) {
		nKeys := 1 + int(keyTypes>>1&1)
		mkTable := func(raw []byte, tag string) *table.Table {
			var sch table.Schema
			var cols []*table.Vector
			for k := 0; k < nKeys; k++ {
				key := &table.Vector{Type: table.Int}
				if keyTypes>>(2*k)&1 != 0 {
					key.Type = table.Str
				}
				for i, b := range raw {
					// Tiny alphabets so both sides intersect often; the second
					// key reads the bytes shifted so the two keys differ.
					x := b >> (3 * k)
					if k > 0 {
						x = raw[(i+1)%len(raw)]
					}
					if key.Type == table.Str {
						key.Strs = append(key.Strs, string(rune('a'+x%5)))
					} else {
						key.Ints = append(key.Ints, int64(x)%9-4)
					}
				}
				sch.Cols = append(sch.Cols, table.Column{Name: fmt.Sprintf("%sk%d", tag, k), Type: key.Type})
				cols = append(cols, key)
			}
			pay := &table.Vector{Type: table.Int}
			for i := range raw {
				pay.Ints = append(pay.Ints, int64(i))
			}
			sch.Cols = append(sch.Cols, table.Column{Name: tag + "p", Type: table.Int})
			return &table.Table{Schema: sch, Cols: append(cols, pay)}
		}
		half := len(data) / 2
		left := mkTable(data[:half], "l")
		right := mkTable(data[half:], "r")

		encode := func(tb *table.Table, chunk uint8) *encoding.Compressed {
			enc := encChoice{opts: encoding.Options{ChunkRows: 1 + int(chunk)%7}, rleEvery: int(chunk >> 3 & 3)}
			return enc.compress(t, tb)
		}
		cts := map[string]*encoding.Compressed{
			"L": encode(left, chunkL),
			"R": encode(right, chunkR),
		}
		resolve := func(n string) (*table.Table, error) {
			ct, ok := cts[n]
			if !ok {
				return nil, fmt.Errorf("unknown table %q", n)
			}
			return ct.Table()
		}
		rowCtx := &engine.Context{Resolve: resolve}
		vecCtx := &engine.Context{
			Resolve:           resolve,
			ResolveCompressed: func(n string) (*encoding.Compressed, error) { return cts[n], nil },
		}
		keys := []int{0, 1}[:nKeys]
		build := func() engine.Node {
			return &engine.HashJoin{
				Left:      &engine.Scan{Name: "L", Sch: left.Schema},
				Right:     &engine.Scan{Name: "R", Sch: right.Schema},
				LeftKeys:  keys,
				RightKeys: keys,
			}
		}
		want, err := build().Run(rowCtx)
		if err != nil {
			t.Fatalf("row engine: %v", err)
		}
		st := &Stats{}
		lowered := Lower(build(), st)
		if _, ok := lowered.(*HashJoinScan); !ok {
			t.Fatalf("join on %d INT/STRING keys did not lower: %s", nKeys, lowered)
		}
		got, err := lowered.Run(vecCtx)
		if err != nil {
			t.Fatalf("kernel: %v", err)
		}
		wb, err := colfmt.Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := colfmt.Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Fatalf("join results differ: row engine %d rows, kernel %d rows",
				want.NumRows(), got.NumRows())
		}
	})
}
