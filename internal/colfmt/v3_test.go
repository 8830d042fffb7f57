package colfmt

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

func v3Table(t *testing.T, n int) *table.Table {
	t.Helper()
	tb := table.New(table.NewSchema(
		table.Column{Name: "id", Type: table.Int},
		table.Column{Name: "cat", Type: table.Str},
		table.Column{Name: "amt", Type: table.Float},
	))
	for i := 0; i < n; i++ {
		if err := tb.AppendRow(
			table.IntValue(int64(i)),
			table.StrValue([]string{"a", "b", "c"}[i%3]),
			table.FloatValue(float64(i)/4),
		); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestV3Magic(t *testing.T) {
	data, err := EncodeV2(v3Table(t, 10), encoding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if [4]byte(data[:4]) != magicV3 {
		t.Fatalf("writer emitted magic %q, want SCF3", data[:4])
	}
	if !IsChunked(data) {
		t.Fatal("IsChunked(v3) = false")
	}
}

// TestV3SizeBytesMatchesSerialized pins the accounting contract: the
// Memory Catalog charges exactly what the serialized object occupies.
func TestV3SizeBytesMatchesSerialized(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100, 5000} {
		ct, err := encoding.FromTable(v3Table(t, n), encoding.Options{ChunkRows: 64})
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeCompressed(ct)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) != ct.SizeBytes() {
			t.Fatalf("n=%d: serialized %d bytes, SizeBytes says %d", n, len(data), ct.SizeBytes())
		}
	}
}

func TestV3RoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		tb := v3Table(t, n)
		data, err := EncodeV2(tb, encoding.Options{ChunkRows: 100})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		wantB, _ := Encode(tb)
		gotB, _ := Encode(got)
		if !bytes.Equal(wantB, gotB) {
			t.Fatalf("n=%d: round trip altered the table", n)
		}
		sch, rows, err := DecodeSchema(data)
		if err != nil {
			t.Fatal(err)
		}
		if !sch.Equal(tb.Schema) || rows != n {
			t.Fatalf("n=%d: DecodeSchema got %v/%d", n, sch, rows)
		}
	}
}

// encodeLegacyV2 reproduces the retired fixed-framing v2 writer so the
// reader's backward compatibility stays pinned even though nothing writes
// v2 anymore.
func encodeLegacyV2(ct *encoding.Compressed) []byte {
	var buf bytes.Buffer
	buf.Write(magicV2[:])
	writeU32(&buf, uint32(len(ct.Cols)))
	writeU64(&buf, uint64(ct.NRows))
	for ci, chunks := range ct.Cols {
		name := ct.Schema.Cols[ci].Name
		writeU16(&buf, uint16(len(name)))
		buf.WriteString(name)
		buf.WriteByte(byte(ct.Schema.Cols[ci].Type))
		writeU32(&buf, uint32(len(chunks)))
		for _, ch := range chunks {
			buf.WriteByte(byte(ch.Codec))
			writeU32(&buf, uint32(ch.Rows))
			writeU64(&buf, uint64(len(ch.Data)))
			buf.Write(ch.Data)
			writeU32(&buf, chunkCRC(byte(ch.Codec), uint32(ch.Rows), ch.Data))
		}
	}
	return buf.Bytes()
}

func TestLegacyV2StillDecodes(t *testing.T) {
	tb := v3Table(t, 500)
	ct, err := encoding.FromTable(tb, encoding.Options{ChunkRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	v2 := encodeLegacyV2(ct)
	if [4]byte(v2[:4]) != magicV2 {
		t.Fatal("legacy writer produced wrong magic")
	}
	got, err := Decode(v2)
	if err != nil {
		t.Fatalf("legacy v2 decode: %v", err)
	}
	wantB, _ := Encode(tb)
	gotB, _ := Encode(got)
	if !bytes.Equal(wantB, gotB) {
		t.Fatal("legacy v2 decode altered the table")
	}
	ct2, err := DecodeCompressed(v2)
	if err != nil {
		t.Fatal(err)
	}
	if ct2.NRows != 500 || len(ct2.Cols) != 3 {
		t.Fatalf("lazy legacy decode got %d rows, %d cols", ct2.NRows, len(ct2.Cols))
	}
	sch, rows, err := DecodeSchema(v2)
	if err != nil {
		t.Fatal(err)
	}
	if !sch.Equal(tb.Schema) || rows != 500 {
		t.Fatalf("legacy DecodeSchema got %v/%d", sch, rows)
	}
}

// TestV3CorruptionDetected flips every byte of a v3 file and requires the
// reader to either error out or produce the original values. Column names
// are the one header field no version checksums, so a flip there may
// decode under a different name; every value-carrying byte is covered by
// the chunk CRC.
func TestV3CorruptionDetected(t *testing.T) {
	tb := v3Table(t, 64)
	data, err := EncodeV2(tb, encoding.Options{ChunkRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x41
		got, err := Decode(mut)
		if err != nil {
			continue
		}
		if got.NumRows() != tb.NumRows() || len(got.Cols) != len(tb.Cols) {
			t.Fatalf("flip at byte %d silently altered the table shape", i)
		}
		for c := range tb.Cols {
			if got.Cols[c].Type != tb.Cols[c].Type {
				t.Fatalf("flip at byte %d silently altered column %d's type", i, c)
			}
			for r := 0; r < tb.NumRows(); r++ {
				if got.Cols[c].Value(r) != tb.Cols[c].Value(r) {
					t.Fatalf("flip at byte %d silently altered column %d row %d", i, c, r)
				}
			}
		}
	}
}

func uvarint(v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return tmp[:binary.PutUvarint(tmp[:], v)]
}

// TestV3HostileHeaders feeds crafted headers that claim absurd sizes; the
// reader must fail fast rather than allocate.
func TestV3HostileHeaders(t *testing.T) {
	var b bytes.Buffer
	b.Write(magicV3[:])
	b.Write(uvarint(1))       // one column
	b.Write(uvarint(1 << 40)) // absurd row count
	if _, err := DecodeCompressed(b.Bytes()); err == nil {
		t.Fatal("absurd row count accepted")
	}

	b.Reset()
	b.Write(magicV3[:])
	b.Write(uvarint(1))
	b.Write(uvarint(10))
	b.Write(uvarint(1 << 50)) // name length far beyond the buffer
	if _, err := DecodeCompressed(b.Bytes()); err == nil {
		t.Fatal("absurd name length accepted")
	}

	b.Reset()
	b.Write(magicV3[:])
	b.Write(uvarint(1))
	b.Write(uvarint(10))
	b.Write(uvarint(1))
	b.WriteByte('x')
	b.WriteByte(0)            // type Int
	b.Write(uvarint(1 << 60)) // absurd chunk count
	if _, err := DecodeCompressed(b.Bytes()); err == nil {
		t.Fatal("absurd chunk count accepted")
	}

	// A chunk count chosen so nChunks*ChunkFramingMin wraps uint64 to a
	// tiny value: the bounds check must compare by division, not by the
	// overflowing product.
	wrap := (^uint64(0))/7 + 1 // *7 ≡ small mod 2^64
	b.Reset()
	b.Write(magicV3[:])
	b.Write(uvarint(1))
	b.Write(uvarint(10))
	b.Write(uvarint(1))
	b.WriteByte('x')
	b.WriteByte(0)
	b.Write(uvarint(wrap))
	if _, err := DecodeCompressed(b.Bytes()); err == nil {
		t.Fatal("overflowing chunk count accepted")
	}
	if _, _, err := DecodeSchema(b.Bytes()); err == nil {
		t.Fatal("overflowing chunk count accepted by DecodeSchema")
	}
}

// TestDecodeHeadIsAPrefix checks DecodeHead at every interesting row count
// around the chunk boundaries: of a chunked file, aligned or not, it returns
// exactly the first n rows; a v1 file decodes whole.
func TestDecodeHeadIsAPrefix(t *testing.T) {
	const rows, chunkRows = 300, 64
	full := mixedTable(t, rows, 11)
	chunked, err := EncodeV2(full, encoding.Options{ChunkRows: chunkRows})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := Encode(full)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := DecodeCompressed(chunked)
	if err != nil {
		t.Fatal(err)
	}
	// Re-chunk column 0 alone so its boundaries differ from the others'.
	col0, err := encoding.FromTable(full, encoding.Options{ChunkRows: 2 * chunkRows})
	if err != nil {
		t.Fatal(err)
	}
	skewed := *ct
	skewed.Cols = append([][]encoding.Chunk{col0.Cols[0]}, ct.Cols[1:]...)
	misaligned, err := EncodeCompressed(&skewed)
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{0, 1, chunkRows - 1, chunkRows, chunkRows + 1, rows - 1, rows, rows + 1} {
		head := rows // n <= 0 means everything
		if n > 0 && n < rows {
			head = n
		}
		for _, tc := range []struct {
			name string
			data []byte
			rows int
		}{{"chunked", chunked, head}, {"v1", v1, rows}, {"misaligned", misaligned, head}} {
			got, err := DecodeHead(tc.data, n)
			if err != nil {
				t.Fatalf("%s, n=%d: %v", tc.name, n, err)
			}
			if got.NumRows() != tc.rows {
				t.Fatalf("%s, n=%d: %d rows, want %d", tc.name, n, got.NumRows(), tc.rows)
			}
			idx := make([]int, got.NumRows())
			for i := range idx {
				idx[i] = i
			}
			if want := full.Gather(idx); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, n=%d: not a prefix of the full table", tc.name, n)
			}
		}
	}
}
