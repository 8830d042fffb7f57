package colfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
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
	data, err := EncodeTable(v3Table(t, 10), encoding.Options{})
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
		data, err := EncodeTable(tb, encoding.Options{ChunkRows: 100})
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

// TestRetiredV2MagicRejected pins that the retired fixed-framing "SCF2"
// layout, which nothing writes, is refused by every entry point instead of
// being parsed as something else.
func TestRetiredV2MagicRejected(t *testing.T) {
	data, err := EncodeTable(v3Table(t, 10), encoding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "SCF2")
	if IsChunked(data) {
		t.Fatal("IsChunked(SCF2) = true")
	}
	_, errDecode := Decode(data)
	_, errHead := DecodeHead(data, 1)
	_, _, errSchema := DecodeSchema(data)
	_, errCompressed := DecodeCompressed(data)
	for name, err := range map[string]error{
		"Decode": errDecode, "DecodeHead": errHead, "DecodeSchema": errSchema, "DecodeCompressed": errCompressed,
	} {
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(fmt.Sprint(err), "bad magic") {
			t.Errorf("%s(SCF2) = %v, want ErrCorrupt: bad magic", name, err)
		}
	}
}

// TestV3CorruptionDetected flips every byte of a v3 file and requires the
// reader to either error out or produce the original values. Column names
// are the one header field no version checksums, so a flip there may
// decode under a different name; every value-carrying byte is covered by
// the chunk CRC.
func TestV3CorruptionDetected(t *testing.T) {
	tb := v3Table(t, 64)
	data, err := EncodeTable(tb, encoding.Options{ChunkRows: 16})
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
	chunked, err := EncodeTable(full, encoding.Options{ChunkRows: chunkRows})
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
