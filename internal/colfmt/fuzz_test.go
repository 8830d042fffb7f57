package colfmt

import (
	"testing"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

// fuzzSeedTables returns valid v1 and v2 files plus the corrupted-header
// shapes that have bitten before (the PR 1 prealloc fix: a header row
// count far larger than the payload must not translate into a huge
// allocation before validation fails).
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	tb := table.New(table.NewSchema(
		table.Column{Name: "k", Type: table.Int},
		table.Column{Name: "price", Type: table.Float},
		table.Column{Name: "cat", Type: table.Str},
	))
	cats := []string{"Books", "Electronics", "Home"}
	for i := 0; i < 300; i++ {
		if err := tb.AppendRow(
			table.IntValue(int64(i)),
			table.FloatValue(float64(i*13%997)/100),
			table.StrValue(cats[i%3]),
		); err != nil {
			f.Fatal(err)
		}
	}
	v1, err := Encode(tb)
	if err != nil {
		f.Fatal(err)
	}
	v2, err := EncodeTable(tb, encoding.Options{ChunkRows: 64})
	if err != nil {
		f.Fatal(err)
	}
	v2raw, err := EncodeTable(tb, encoding.Options{Mode: encoding.ModeRaw})
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{v1, v2, v2raw, nil, []byte("SCF1"), []byte("SCF2")}
	for _, base := range [][]byte{v1, v2} {
		// Absurd row count in the (unchecksummed) header.
		huge := append([]byte(nil), base...)
		for i, b := range []byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0} {
			huge[8+i] = b
		}
		// Truncated mid-payload.
		trunc := append([]byte(nil), base[:len(base)/2]...)
		// Column count far beyond the buffer.
		cols := append([]byte(nil), base...)
		cols[4], cols[5], cols[6], cols[7] = 0xFF, 0xFF, 0xFF, 0xFF
		seeds = append(seeds, huge, trunc, cols)
	}
	// No writer makes RLE chunks any more; this object keeps the fuzzers on
	// the reader older stores still need.
	rle, _ := olderRLEObject(f)
	return append(seeds, rle)
}

// fuzzRowCap bounds how many rows a fuzz input may claim before the
// harness materializes it. RLE runs (of older stores) and width-0
// dict/delta chunks expand
// by design (a constant column of millions of rows encodes in a handful
// of bytes), so a crafted header can demand a legitimately huge decode;
// capping in the harness keeps CI memory sane while the parsers still see
// every input.
const fuzzRowCap = 1 << 21

// claimsAbsurdRows reports whether the input's header asks for more rows
// than the harness is willing to materialize.
func claimsAbsurdRows(data []byte) bool {
	_, n, err := DecodeSchema(data)
	return err == nil && n > fuzzRowCap
}

// FuzzDecode checks that Decode (v1 and v2 dispatch) never panics, never
// loops, and only returns structurally valid tables.
func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if claimsAbsurdRows(data) {
			return
		}
		tb, err := Decode(data)
		if err != nil {
			return
		}
		if vErr := tb.Validate(); vErr != nil {
			t.Fatalf("Decode returned invalid table without error: %v", vErr)
		}
		// Anything that decodes must re-encode and decode to the same shape.
		re, err := Encode(tb)
		if err != nil {
			t.Fatalf("re-encode of decoded table failed: %v", err)
		}
		tb2, err := Decode(re)
		if err != nil {
			t.Fatalf("decode of re-encoded table failed: %v", err)
		}
		if tb2.NumRows() != tb.NumRows() || !tb2.Schema.Equal(tb.Schema) {
			t.Fatal("re-encode changed table shape")
		}
	})
}

// FuzzDecodeSchema checks the header-only reader against the same corpus:
// it must agree with the full decoder about which schemas exist.
func FuzzDecodeSchema(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sch, n, err := DecodeSchema(data)
		if err != nil {
			return
		}
		if n < 0 {
			t.Fatalf("DecodeSchema returned negative row count %d", n)
		}
		if n > fuzzRowCap {
			return
		}
		if tb, fullErr := Decode(data); fullErr == nil {
			if !tb.Schema.Equal(sch) {
				t.Fatalf("DecodeSchema %s disagrees with Decode %s", sch, tb.Schema)
			}
			if tb.NumRows() != n {
				t.Fatalf("DecodeSchema rows %d, Decode rows %d", n, tb.NumRows())
			}
		}
	})
}

// FuzzDecodeCompressed drives the lazy v2 reader: parsing must be safe and
// a parsed file must decompress to a valid table or fail cleanly.
func FuzzDecodeCompressed(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := DecodeCompressed(data)
		if err != nil {
			return
		}
		if ct.NRows > fuzzRowCap {
			return
		}
		tb, err := ct.Table()
		if err != nil {
			return
		}
		if vErr := tb.Validate(); vErr != nil {
			t.Fatalf("decompressed table invalid without error: %v", vErr)
		}
		if tb.NumRows() != ct.NRows {
			t.Fatalf("row count drifted: %d vs %d", tb.NumRows(), ct.NRows)
		}
	})
}
