package colfmt

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

func mixedTable(t testing.TB, n int, seed int64) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tb := table.New(table.NewSchema(
		table.Column{Name: "k", Type: table.Int},
		table.Column{Name: "price", Type: table.Float},
		table.Column{Name: "cat", Type: table.Str},
	))
	cats := []string{"Books", "Electronics", "Home", "Jewelry"}
	for i := 0; i < n; i++ {
		if err := tb.AppendRow(
			table.IntValue(int64(i+100)),
			table.FloatValue(float64(rng.Intn(20000)+100)/100),
			table.StrValue(cats[rng.Intn(len(cats))]),
		); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestV2RoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 100, 5000} {
		tb := mixedTable(t, n, int64(n))
		data, err := EncodeTable(tb, encoding.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := tablesEqual(tb, got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestV2SmallerThanV1OnTypicalData(t *testing.T) {
	tb := mixedTable(t, 20000, 3)
	v1, err := Encode(tb)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := EncodeTable(tb, encoding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(v2) >= len(v1) {
		t.Fatalf("v2 (%d bytes) not smaller than v1 (%d bytes)", len(v2), len(v1))
	}
}

func TestV2RawModeIsUncompressed(t *testing.T) {
	tb := mixedTable(t, 5000, 4)
	raw, err := EncodeTable(tb, encoding.Options{Mode: encoding.ModeRaw})
	if err != nil {
		t.Fatal(err)
	}
	// Two 8-byte columns plus strings: raw must be at least 16 bytes/row.
	if int64(len(raw)) < int64(tb.NumRows())*16 {
		t.Fatalf("raw mode produced %d bytes for %d rows", len(raw), tb.NumRows())
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := tablesEqual(tb, got); err != nil {
		t.Fatal(err)
	}
}

func TestV1FilesStillDecode(t *testing.T) {
	// A writer upgrade must never orphan existing objects: encode with the
	// v1 writer, decode through the dispatching entry points.
	tb := mixedTable(t, 1000, 5)
	v1, err := Encode(tb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tablesEqual(tb, got); err != nil {
		t.Fatal(err)
	}
	sch, n, err := DecodeSchema(v1)
	if err != nil {
		t.Fatal(err)
	}
	if !sch.Equal(tb.Schema) || n != tb.NumRows() {
		t.Fatal("v1 DecodeSchema mismatch")
	}
}

func TestV2DecodeSchemaSkipsPayloads(t *testing.T) {
	tb := mixedTable(t, 5000, 6)
	data, err := EncodeTable(tb, encoding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sch, n, err := DecodeSchema(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sch.Equal(tb.Schema) || n != tb.NumRows() {
		t.Fatalf("schema %s rows %d", sch, n)
	}
}

func TestV2DecodeCompressedIsLazy(t *testing.T) {
	tb := mixedTable(t, 5000, 7)
	data, err := EncodeTable(tb, encoding.Options{ChunkRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := DecodeCompressed(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Cols[0]) != 5 {
		t.Fatalf("want 5 chunks, got %d", len(ct.Cols[0]))
	}
	got, err := ct.Table()
	if err != nil {
		t.Fatal(err)
	}
	if err := tablesEqual(tb, got); err != nil {
		t.Fatal(err)
	}
}

func TestV2ChecksumDetectsCorruption(t *testing.T) {
	tb := mixedTable(t, 1000, 8)
	data, err := EncodeTable(tb, encoding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte past the headers.
	mut := append([]byte(nil), data...)
	mut[len(mut)-10] ^= 0xFF
	if _, err := Decode(mut); err == nil {
		t.Fatal("corrupted v2 file decoded without error")
	}
}

// TestV2ChecksumCoversChunkHeader: flipping a chunk's codec tag or row
// count must fail the checksum, not decode the payload under the wrong
// codec into silently wrong data.
func TestV2ChecksumCoversChunkHeader(t *testing.T) {
	tb := mixedTable(t, 1000, 14)
	data, err := EncodeTable(tb, encoding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// First chunk's codec tag sits after magic(4)+nCols(4)+nRows(8)+
	// nameLen(2)+"k"(1)+type(1)+nChunks(4) = 24.
	const codecOff = 24
	for _, delta := range []byte{1, 2, 3, 4} {
		mut := append([]byte(nil), data...)
		mut[codecOff] ^= delta
		if _, err := Decode(mut); err == nil {
			t.Fatalf("codec tag flipped by %d decoded without error", delta)
		}
	}
	// Row-count bytes immediately follow the codec tag.
	mut := append([]byte(nil), data...)
	mut[codecOff+1] ^= 0x01
	if _, err := Decode(mut); err == nil {
		t.Fatal("chunk row count flipped without error")
	}
}

// TestV2RejectsOversizedChunkClaims: a chunk claiming more rows than
// MaxChunkRows is rejected before any codec materializes it, bounding what
// a tiny corrupt object can make the decoder allocate.
func TestV2RejectsOversizedChunkClaims(t *testing.T) {
	ct := &encoding.Compressed{
		Schema: table.NewSchema(table.Column{Name: "k", Type: table.Int}),
		NRows:  encoding.MaxChunkRows + 1,
		Cols: [][]encoding.Chunk{{{
			Codec: encoding.Dict,
			Rows:  encoding.MaxChunkRows + 1,
			Data:  []byte{1, 0, 0}, // 1 entry (value 0), width 0
		}}},
	}
	if err := ct.Validate(); err == nil {
		t.Fatal("Validate accepted a chunk beyond MaxChunkRows")
	}
	if _, err := EncodeCompressed(ct); err == nil {
		t.Fatal("EncodeCompressed accepted a chunk beyond MaxChunkRows")
	}
	// Encoder-side: absurd ChunkRows options are clamped, so legitimate
	// writers can never produce such a chunk.
	tb := mixedTable(t, 100, 15)
	data, err := EncodeTable(tb, encoding.Options{ChunkRows: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("clamped encode did not round-trip: %v", err)
	}
}

func TestV2DecodeNeverPanicsOnCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("corruption property test is slow")
	}
	tb := mixedTable(t, 2000, 9)
	data, err := EncodeTable(tb, encoding.Options{ChunkRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 2000; trial++ {
		mut := append([]byte(nil), data...)
		for k := 0; k < 1+rng.Intn(8); k++ {
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		}
		if rng.Intn(4) == 0 {
			mut = mut[:rng.Intn(len(mut))]
		}
		got, err := Decode(mut)
		if err == nil {
			if vErr := got.Validate(); vErr != nil {
				t.Fatalf("corrupt decode returned invalid table: %v", vErr)
			}
		}
		_, _, _ = DecodeSchema(mut)
		_, _ = DecodeCompressed(mut)
	}
}

func TestV2LargeRowCountHeaderDoesNotPreallocate(t *testing.T) {
	// A header claiming 2^31-1 rows with no payload must fail fast instead
	// of allocating gigabytes (the PR 1 prealloc case, v2 edition).
	tb := mixedTable(t, 10, 11)
	data, err := EncodeTable(tb, encoding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	for i, b := range []byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0} {
		mut[8+i] = b
	}
	if _, err := Decode(mut); err == nil {
		t.Fatal("absurd row count decoded without error")
	}
}

// TestSizeBytesMatchesSerializedSize pins Compressed.SizeBytes — what the
// Memory Catalog budget and cost model consume — to the exact size of the
// serialized v2 object, so the accounting can never drift from the format.
func TestSizeBytesMatchesSerializedSize(t *testing.T) {
	for _, n := range []int{0, 1, 100, 5000} {
		tb := mixedTable(t, n, int64(n)+30)
		ct, err := encoding.FromTable(tb, encoding.Options{ChunkRows: 1000})
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeCompressed(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ct.SizeBytes(), int64(len(data)); got != want {
			t.Fatalf("n=%d: SizeBytes = %d, serialized = %d", n, got, want)
		}
	}
}

// TestDecodeSchemaPayloadLenOverflow: a chunk (or v1 column) whose payload
// length field is near 2^64 must be rejected, not wrapped past the +4
// checksum arithmetic. Before the guard, DecodeSchema accepted files that
// Decode rejected, feeding garbage schemas to the SQL planner.
func TestDecodeSchemaPayloadLenOverflow(t *testing.T) {
	tb := mixedTable(t, 7, 20) // first column is named "k"
	// Offset of the first column's u64 payload-length field: magic(4) +
	// nCols(4) + nRows(8) + nameLen(2) + "k"(1) + type(1), then for v1 the
	// encoding byte(1); for v2 nChunks(4) + codec(1) + chunkRows(4).
	cases := []struct {
		name   string
		encode func(*table.Table) ([]byte, error)
		lenOff int
	}{
		{"v1", Encode, 21},
		{"v2", func(tb *table.Table) ([]byte, error) { return EncodeTable(tb, encoding.Options{}) }, 29},
	}
	for _, tc := range cases {
		data, err := tc.encode(tb)
		if err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), data...)
		for i := 0; i < 8; i++ {
			mut[tc.lenOff+i] = 0xFF // payloadLen = MaxUint64: +4 would wrap
		}
		if _, _, err := DecodeSchema(mut); err == nil {
			t.Fatalf("%s: DecodeSchema accepted a MaxUint64 payload length", tc.name)
		}
		if _, err := Decode(mut); err == nil {
			t.Fatalf("%s: Decode accepted a MaxUint64 payload length", tc.name)
		}
	}
}

// TestCorruptRowCountFailsWithoutHugeAllocation: a tiny crafted file whose
// header claims millions of bit-packed rows must fail the payload check
// before allocating the output slice. (Run with a memory limit this is the
// difference between an error and an OOM; here we just require the error.)
func TestCorruptRowCountFailsWithoutHugeAllocation(t *testing.T) {
	tb := mixedTable(t, 2000, 21) // dict-encoded category column, width > 0
	data, err := EncodeTable(tb, encoding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	// Claim ~2 billion rows; every chunk still carries its true tiny payload.
	for i, b := range []byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0} {
		mut[8+i] = b
	}
	if _, err := Decode(mut); err == nil {
		t.Fatal("absurd row count decoded without error")
	}
}

func BenchmarkEncodeTable(b *testing.B) {
	tb := mixedTable(b, 20000, 12)
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		data, err := EncodeTable(tb, encoding.Options{})
		if err != nil {
			b.Fatal(err)
		}
		n = len(data)
	}
	b.SetBytes(tb.ByteSize())
	_ = fmt.Sprint(n)
}

func BenchmarkDecodeV2(b *testing.B) {
	tb := mixedTable(b, 20000, 13)
	data, err := EncodeTable(tb, encoding.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
