package encoding

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
)

// rlePayload lays v out the way the retired RLE writer did: per run of
// equal values (floats compared by bit pattern), uvarint(runLen) and then
// the value as a zig-zag varint, 8 little-endian float bits or a
// length-prefixed string.
func rlePayload(v *table.Vector) []byte {
	var buf []byte
	for i := 0; i < v.Len(); {
		j := i + 1
		for j < v.Len() && sameBits(v, i, j) {
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

func sameBits(v *table.Vector, i, j int) bool {
	switch v.Type {
	case table.Int:
		return v.Ints[i] == v.Ints[j]
	case table.Float:
		return math.Float64bits(v.Floats[i]) == math.Float64bits(v.Floats[j])
	default:
		return v.Strs[i] == v.Strs[j]
	}
}

// olderRLETable is a table as a store written before RLE became
// decode-only can hold it: an INT, a FLOAT (with a NaN run and −0.0) and a
// STRING column as RLE chunks, and a decimal FLOAT column as a floatdec
// chunk whose inner int payload is RLE — two row groups of 12 and 9 rows.
func olderRLETable() (*table.Table, *Compressed) {
	nan := math.Float64frombits(0x7ff8000000000bad)
	negZero := math.Copysign(0, -1)
	tb := table.New(table.NewSchema(
		table.Column{Name: "i", Type: table.Int},
		table.Column{Name: "f", Type: table.Float},
		table.Column{Name: "s", Type: table.Str},
		table.Column{Name: "money", Type: table.Float},
	))
	for r := 0; r < 21; r++ {
		f := []float64{nan, 1.5, negZero, 0}[r/6]
		_ = tb.AppendRow(table.IntValue(int64(r/5)-2), table.FloatValue(f),
			table.StrValue([]string{"", "Books", "Toys"}[r/8]), table.FloatValue(float64(r/4)*0.25))
	}
	ct := &Compressed{Schema: tb.Schema, NRows: 21, Cols: make([][]Chunk, 4)}
	for _, g := range [][2]int{{0, 12}, {12, 21}} {
		rows := g[1] - g[0]
		for ci := 0; ci < 3; ci++ {
			ct.Cols[ci] = append(ct.Cols[ci], Chunk{Codec: RLE, Rows: rows, Data: rlePayload(slice(tb.Cols[ci], g[0], g[1]))})
		}
		cents := &table.Vector{Type: table.Int}
		for _, f := range tb.Cols[3].Floats[g[0]:g[1]] {
			cents.Ints = append(cents.Ints, int64(f*100))
		}
		money := append([]byte{2, byte(RLE)}, rlePayload(cents)...) // scale 10^2
		ct.Cols[3] = append(ct.Cols[3], Chunk{Codec: FloatDec, Rows: rows, Data: money})
	}
	return tb, ct
}

// TestRLEIsDecodeOnly: no writer can pick RLE any more, and asking it to
// encode or size fails the way an inapplicable codec does.
func TestRLEIsDecodeOnly(t *testing.T) {
	c := codecs[RLE]
	for _, typ := range []table.Type{table.Int, table.Float, table.Str} {
		if c.CanEncode(typ) {
			t.Errorf("rle claims to encode %s", typ)
		}
		for _, cand := range Candidates(typ) {
			if cand.ID() == RLE {
				t.Errorf("Candidates(%s) offers rle", typ)
			}
		}
		v := genVector(rand.New(rand.NewSource(1)), typ, 10)
		if _, err := c.Encode(v); !errors.Is(err, ErrUnsupported) {
			t.Errorf("rle Encode(%s) = %v, want ErrUnsupported", typ, err)
		}
		if _, err := c.size(v); !errors.Is(err, ErrUnsupported) {
			t.Errorf("rle size(%s) = %v, want ErrUnsupported", typ, err)
		}
	}
}

// TestOlderRLEChunksDecode: RLE chunks of every type, and a floatdec chunk
// over an RLE payload, decode bit-identically — whole, chunk by chunk and
// as every head of the table, including heads that end mid-run.
func TestOlderRLEChunksDecode(t *testing.T) {
	tb, ct := olderRLETable()
	for ci, chunks := range ct.Cols {
		row := 0
		for g, ch := range chunks {
			got, err := DecodeChunk(ch, tb.Schema.Cols[ci].Type)
			if err != nil {
				t.Fatalf("column %d group %d: %v", ci, g, err)
			}
			if want := slice(tb.Cols[ci], row, row+ch.Rows); !vecEqual(want, got) {
				t.Fatalf("column %d group %d decodes differently", ci, g)
			}
			row += ch.Rows
		}
	}
	for n := 1; n <= tb.NumRows(); n++ {
		head, err := ct.HeadTable(n)
		if err != nil {
			t.Fatalf("HeadTable(%d): %v", n, err)
		}
		for ci, col := range head.Cols {
			if !vecEqual(slice(tb.Cols[ci], 0, n), col) {
				t.Fatalf("HeadTable(%d) column %d is not the table's first %d rows", n, ci, n)
			}
		}
	}
	// A run that claims more rows than its chunk holds is corrupt.
	bad := Chunk{Codec: RLE, Rows: 3, Data: rlePayload(&table.Vector{Type: table.Int, Ints: []int64{4, 4, 4, 4}})}
	if _, err := DecodeChunk(bad, table.Int); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overrunning run: %v, want ErrCorrupt", err)
	}
}
