package chunkio

import (
	"bytes"
	"encoding/binary"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

// fuzzValues derives a column of type t from data. An INT byte picks a
// small key, one within 31 of ±2^63, one 2^40 apart from its neighbours
// (a spread that pushes a KeyDict off its dense window mid-column) or,
// from the next 8 bytes, any int64. A STRING byte picks a string of 0–3
// repeats of one letter, so "" appears.
func fuzzValues(t table.Type, data []byte) *table.Vector {
	v := &table.Vector{Type: t}
	for i := 0; i < len(data); i++ {
		b := data[i]
		if t == table.Str {
			v.Strs = append(v.Strs, strings.Repeat(string(rune('a'+b%5)), int(b>>6)))
			continue
		}
		var x int64
		switch b >> 6 {
		case 0:
			x = int64(b & 63)
		case 1:
			if x = math.MinInt64 + int64(b&31); b&32 != 0 {
				x = math.MaxInt64 - int64(b&31)
			}
		case 2:
			x = int64(b&63) << 40
		default:
			if i+8 < len(data) {
				x = int64(binary.LittleEndian.Uint64(data[i+1:]))
				i += 8
			}
		}
		v.Ints = append(v.Ints, x)
	}
	return v
}

// FuzzDictChunk pins that a code-space dictionary chunk is the dict
// codec's chunk. An output dictionary interns an earlier source
// dictionary's entries (pre), then the column's values; the first-use
// dense remap of their ids must build, through BuildDictChunk, the payload
// the dict codec encodes from the values themselves, byte for byte.
func FuzzDictChunk(f *testing.F) {
	f.Add(false, []byte{3, 1, 3}, []byte{1, 2, 1, 0x40, 0x7f, 0x85, 2, 0x60})
	f.Add(false, []byte{}, []byte{0xc0, 1, 2, 3, 4, 5, 6, 7, 8, 0x81, 0x82, 0x81, 9})
	f.Add(true, []byte{0x41, 0x82}, []byte{0, 0x41, 0x82, 0xc3, 0x41, 0})
	dictCodec, err := encoding.ByID(encoding.Dict)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, str bool, pre, data []byte) {
		typ := table.Int
		if str {
			typ = table.Str
		}
		vals := fuzzValues(typ, data)
		if vals.Len() == 0 {
			return
		}
		want, err := dictCodec.Encode(vals)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		d := newDict(typ, DefaultMaxEntries)
		if _, ok := d.remap(&encoding.DictView{Vector: *fuzzValues(typ, pre)}); !ok {
			t.Fatal("remap of pre overflowed")
		}
		ids, ok := d.remap(&encoding.DictView{Vector: *vals})
		if !ok {
			t.Fatal("remap of values overflowed")
		}
		var scratch, codes []int32
		var ents table.Vector
		e, c := d.dense(ids, &scratch, &ents, &codes)
		got, err := encoding.BuildDictChunk(e, c)
		if err != nil {
			t.Fatalf("BuildDictChunk: %v", err)
		}
		if !bytes.Equal(got.Data, want) {
			t.Fatalf("code-space payload %x, dict codec's %x", got.Data, want)
		}
	})
}

// dictSource returns a Dict chunk of the given entries, each row in turn.
func dictSource(t *testing.T, entries *table.Vector) *encoding.DictView {
	t.Helper()
	codes := make([]int32, entries.Len())
	for i := range codes {
		codes[i] = int32(i)
	}
	ch, err := encoding.BuildDictChunk(entries, codes)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := encoding.ParseDict(ch, entries.Type)
	if err != nil {
		t.Fatal(err)
	}
	return dv
}

// TestBuilderDictCapBoundary remaps two overlapping source dictionaries
// (3 + 2 entries, 4 distinct) the way the join does: with the cap at the
// distinct count the column stays in code space, one below it the second
// remap overflows and the column finishes in value space.
func TestBuilderDictCapBoundary(t *testing.T) {
	srcs := map[table.Type][2]*table.Vector{
		table.Int: {
			{Type: table.Int, Ints: []int64{7, math.MinInt64, 9}},
			{Type: table.Int, Ints: []int64{9, math.MaxInt64}},
		},
		table.Str: {
			{Type: table.Str, Strs: []string{"b", "", "ccc"}},
			{Type: table.Str, Strs: []string{"ccc", "dd"}},
		},
	}
	for typ, src := range srcs {
		want := &table.Vector{Type: typ}
		want.AppendVector(src[0])
		want.AppendVector(src[1])
		firstBytes := src[0].ByteSize()
		for _, c := range []struct {
			cap  int
			want Counters
		}{
			{4, Counters{CodeChunks: 1}},
			{3, Counters{Reencoded: 1, MaterializedBytes: firstBytes}},
		} {
			sch := table.NewSchema(table.Column{Name: "k", Type: typ})
			b := newBuilder(sch, encoding.Options{}, want.Len(), c.cap)
			for _, s := range src {
				dv := dictSource(t, s)
				if ids, ok := b.Remap(0, dv); ok {
					b.AppendCodes(0, ids)
					continue
				}
				vec := &table.Vector{Type: typ}
				vec.AppendVector(s)
				if err := b.AppendVector(0, vec); err != nil {
					t.Fatal(err)
				}
			}
			out, err := b.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if b.Counters != c.want {
				t.Errorf("%s cap %d: counters %+v, want %+v", typ, c.cap, b.Counters, c.want)
			}
			got, err := out.Table()
			if err != nil {
				t.Fatal(err)
			}
			mustEqualTables(t, typ.String(), &table.Table{Schema: sch, Cols: []*table.Vector{want}}, got)
		}
	}
}

// BenchmarkBuilderDict remaps eight overlapping source dictionaries (an
// INT and a STRING column, 4,096 rows of 1,024 entries each, every source
// sharing half its entries with the next) into one Builder's output
// dictionaries, appends their codes and finishes: the output-dictionary
// path of a code-space join.
func BenchmarkBuilderDict(b *testing.B) {
	const nSrc, card, rows = 8, 1024, 4096
	sch := table.NewSchema(table.Column{Name: "i", Type: table.Int}, table.Column{Name: "s", Type: table.Str})
	var srcs [nSrc][2]*encoding.DictView
	codes := make([]int32, rows)
	for r := range codes {
		codes[r] = int32(r * 7 % card)
	}
	for s := range srcs {
		ints := &table.Vector{Type: table.Int}
		strs := &table.Vector{Type: table.Str}
		for e := 0; e < card; e++ {
			k := s*card/2 + e
			ints.Ints = append(ints.Ints, int64(k)*3)
			strs.Strs = append(strs.Strs, "key-"+strconv.Itoa(k))
		}
		for c, ents := range []*table.Vector{ints, strs} {
			ch, err := encoding.BuildDictChunk(ents, codes)
			if err != nil {
				b.Fatal(err)
			}
			if srcs[s][c], err = encoding.ParseDict(ch, ents.Type); err != nil {
				b.Fatal(err)
			}
		}
	}
	out := make([]int32, rows)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder(sch, encoding.Options{}, nSrc*rows)
		for _, src := range srcs {
			for c, dv := range src {
				ids, ok := bl.Remap(c, dv)
				if !ok {
					b.Fatal("remap refused")
				}
				dcodes, _ := dv.Codes()
				for r, code := range dcodes {
					out[r] = ids[code]
				}
				bl.AppendCodes(c, out)
			}
		}
		if _, err := bl.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}
