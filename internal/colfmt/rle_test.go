package colfmt

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

// rlePayload lays v out the way the retired RLE writer did: per run of
// equal values (floats by bit pattern), uvarint(runLen) and then the value
// as a zig-zag varint, 8 little-endian float bits or a length-prefixed
// string.
func rlePayload(v *table.Vector) []byte {
	same := func(i, j int) bool {
		a, b := v.Value(i), v.Value(j)
		return a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	var buf []byte
	for i := 0; i < v.Len(); {
		j := i + 1
		for j < v.Len() && same(i, j) {
			j++
		}
		buf = binary.AppendUvarint(buf, uint64(j-i))
		switch v.Type {
		case table.Int:
			buf = binary.AppendVarint(buf, v.Ints[i])
		case table.Float:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Floats[i]))
		default:
			buf = append(binary.AppendUvarint(buf, uint64(len(v.Strs[i]))), v.Strs[i]...)
		}
		i = j
	}
	return buf
}

// olderRLEObject is an SCF3 object as a writer from before RLE became
// decode-only could store it: INT, FLOAT (a NaN run included) and STRING
// columns as RLE chunks, and a decimal FLOAT column as floatdec chunks
// over an RLE payload, in two row groups of 10 and 7 rows. It returns the
// table the object holds too.
func olderRLEObject(tb testing.TB) ([]byte, *table.Table) {
	tb.Helper()
	nan := math.Float64frombits(0x7ff8000000000bad)
	want := table.New(table.NewSchema(
		table.Column{Name: "k", Type: table.Int},
		table.Column{Name: "f", Type: table.Float},
		table.Column{Name: "cat", Type: table.Str},
		table.Column{Name: "price", Type: table.Float},
	))
	for r := 0; r < 17; r++ {
		_ = want.AppendRow(table.IntValue(int64(r/3)-1), table.FloatValue([]float64{nan, 2.5, math.Copysign(0, -1)}[r/6]),
			table.StrValue([]string{"Books", "", "Home"}[r/7]), table.FloatValue(float64(r/5)*1.25))
	}
	ct := &encoding.Compressed{Schema: want.Schema, NRows: 17, Cols: make([][]encoding.Chunk, 4)}
	for _, g := range [][2]int{{0, 10}, {10, 17}} {
		rows := g[1] - g[0]
		part := want.Gather(seq(g[0], g[1]))
		for ci := 0; ci < 3; ci++ {
			ct.Cols[ci] = append(ct.Cols[ci], encoding.Chunk{Codec: encoding.RLE, Rows: rows, Data: rlePayload(part.Cols[ci])})
		}
		cents := &table.Vector{Type: table.Int}
		for _, f := range part.Cols[3].Floats {
			cents.Ints = append(cents.Ints, int64(f*100))
		}
		price := append([]byte{2, byte(encoding.RLE)}, rlePayload(cents)...) // scale 10^2
		ct.Cols[3] = append(ct.Cols[3], encoding.Chunk{Codec: encoding.FloatDec, Rows: rows, Data: price})
	}
	data, err := EncodeCompressed(ct)
	if err != nil {
		tb.Fatal(err)
	}
	return data, want
}

// sameBits compares two tables through their v1 bytes, which keep every
// float's bit pattern.
func sameBits(t *testing.T, desc string, want, got *table.Table) {
	t.Helper()
	wb, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatalf("%s: decoded table differs from the one stored", desc)
	}
}

// TestOlderRLEObjectsDecode: an object holding RLE chunks still opens
// through every reader — Decode, DecodeCompressed and DecodeHead at every
// limit, most of which end mid-run — bit for bit.
func TestOlderRLEObjectsDecode(t *testing.T) {
	data, want := olderRLEObject(t)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "Decode", want, got)
	ct, err := DecodeCompressed(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = ct.Table(); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "DecodeCompressed", want, got)
	for n := 1; n <= want.NumRows()+1; n++ {
		head, err := DecodeHead(data, n)
		if err != nil {
			t.Fatalf("DecodeHead(%d): %v", n, err)
		}
		sameBits(t, "DecodeHead", want.Gather(seq(0, min(n, want.NumRows()))), head)
	}
}

// seq returns lo, lo+1, …, hi-1.
func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
