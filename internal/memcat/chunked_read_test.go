package memcat

import (
	"testing"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

func compressedEntry(t *testing.T, rows int) *encoding.Compressed {
	t.Helper()
	tb := table.New(table.NewSchema(table.Column{Name: "v", Type: table.Int}))
	for i := 0; i < rows; i++ {
		tb.Cols[0].Ints = append(tb.Cols[0].Ints, int64(i%5))
	}
	ct, err := encoding.FromTable(tb, encoding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestRowReadsDecodeEveryTimeChunkReadsNever: the catalog keeps entries and
// nothing derived from them. A chunk-form read hands out the entry itself
// and reports no decode work; every row-path read decodes in full and says
// so, however many came before; and none of it moves the accounted bytes.
func TestRowReadsDecodeEveryTimeChunkReadsNever(t *testing.T) {
	c := New(1 << 20)
	ct := compressedEntry(t, 1000)
	if err := c.PutEntry("mv", ct); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, info, ok := c.GetCompressed("mv")
		if !ok || got != ct {
			t.Fatalf("GetCompressed = %v, %v", got, ok)
		}
		if !info.Compressed || info.Decoded != 0 || info.Encoded != ct.SizeBytes() {
			t.Fatalf("chunk read %d: %+v", i, info)
		}
	}
	for i := 0; i < 3; i++ {
		tb, info, ok := c.GetTable("mv")
		if !ok || tb.NumRows() != 1000 {
			t.Fatalf("row read %d missed", i)
		}
		if !info.Compressed || info.Decoded != ct.RawBytes || info.Encoded != ct.SizeBytes() {
			t.Fatalf("row read %d: %+v, want %d decoded of %d encoded", i, info, ct.RawBytes, ct.SizeBytes())
		}
	}
	if c.Used() != ct.SizeBytes() || c.Peak() != ct.SizeBytes() {
		t.Fatalf("reads moved the accounting: used %d peak %d, entry %d", c.Used(), c.Peak(), ct.SizeBytes())
	}
}

// TestGetCompressedDeclinesPlainAndMissing: plain entries and absent names
// return false, sending the caller to the row path.
func TestGetCompressedDeclinesPlainAndMissing(t *testing.T) {
	c := New(1 << 20)
	tb := table.New(table.NewSchema(table.Column{Name: "v", Type: table.Int}))
	tb.Cols[0].Ints = append(tb.Cols[0].Ints, 1)
	if err := c.Put("plain", tb); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.GetCompressed("plain"); ok {
		t.Fatal("plain entry served as compressed")
	}
	if _, _, ok := c.GetCompressed("absent"); ok {
		t.Fatal("absent entry served as compressed")
	}
}
