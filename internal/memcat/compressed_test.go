package memcat

import (
	"errors"
	"math"
	"testing"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

// compressibleTable builds a table whose compressed footprint is far below
// its raw ByteSize: serial keys, low-cardinality strings, decimal floats.
func compressibleTable(t *testing.T, n int) *table.Table {
	t.Helper()
	tb := table.New(table.NewSchema(
		table.Column{Name: "k", Type: table.Int},
		table.Column{Name: "price", Type: table.Float},
		table.Column{Name: "cat", Type: table.Str},
	))
	cats := []string{"Books", "Electronics", "Home", "Jewelry"}
	for i := 0; i < n; i++ {
		if err := tb.AppendRow(
			table.IntValue(int64(2450000+i)),
			table.FloatValue(float64(i%997+100)/100),
			table.StrValue(cats[i%len(cats)]),
		); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func compress(t *testing.T, tb *table.Table) *encoding.Compressed {
	t.Helper()
	ct, err := encoding.FromTable(tb, encoding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestCompressedEntryAccountsCompressedSize: the budget must charge the
// compressed footprint, not the raw table size — that is the whole point
// of storing compressed entries.
func TestCompressedEntryAccountsCompressedSize(t *testing.T) {
	tb := compressibleTable(t, 10000)
	ct := compress(t, tb)
	if ct.SizeBytes() >= tb.ByteSize() {
		t.Fatalf("test table did not compress: %d vs %d", ct.SizeBytes(), tb.ByteSize())
	}
	c := New(1 << 30)
	if err := c.PutEntry("mv", ct); err != nil {
		t.Fatal(err)
	}
	if c.Used() != ct.SizeBytes() {
		t.Fatalf("Used() = %d, want compressed %d", c.Used(), ct.SizeBytes())
	}
	if sz, err := c.Size("mv"); err != nil || sz != ct.SizeBytes() {
		t.Fatalf("Size() = %d, %v", sz, err)
	}
}

// TestCompressedEntryFitsWhereRawWouldNot: a catalog sized between the
// compressed and raw footprints accepts the compressed entry — compression
// multiplies effective catalog capacity.
func TestCompressedEntryFitsWhereRawWouldNot(t *testing.T) {
	tb := compressibleTable(t, 10000)
	ct := compress(t, tb)
	cap := ct.SizeBytes() + (tb.ByteSize()-ct.SizeBytes())/2
	c := New(cap)
	if err := c.Put("raw", tb); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("raw table should not fit in %d bytes, got %v", cap, err)
	}
	if err := c.PutEntry("mv", ct); err != nil {
		t.Fatalf("compressed entry should fit: %v", err)
	}
}

// TestCompressedGetRoundTripsByteIdentical: lazy decode-on-Get must hand
// back exactly the rows that went in, bit-for-bit (floats compared by bit
// pattern).
func TestCompressedGetRoundTripsByteIdentical(t *testing.T) {
	tb := compressibleTable(t, 5000)
	c := New(1 << 30)
	if err := c.PutEntry("mv", compress(t, tb)); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("mv")
	if !ok {
		t.Fatal("Get missed a resident compressed entry")
	}
	if got.NumRows() != tb.NumRows() || !got.Schema.Equal(tb.Schema) {
		t.Fatal("shape changed through the catalog")
	}
	for col := range tb.Cols {
		for i := 0; i < tb.NumRows(); i++ {
			a, b := tb.Cols[col].Value(i), got.Cols[col].Value(i)
			if a.Type == table.Float {
				if math.Float64bits(a.F) != math.Float64bits(b.F) {
					t.Fatalf("col %d row %d: float bits differ", col, i)
				}
				continue
			}
			if a != b {
				t.Fatalf("col %d row %d: %v != %v", col, i, a, b)
			}
		}
	}
}

// TestEvictionUnderPressureRespectsCapacity: filling the catalog with
// compressed entries, overflow is rejected, deleting frees exactly the
// accounted compressed bytes, and the freed space admits the next entry.
func TestEvictionUnderPressureRespectsCapacity(t *testing.T) {
	tb := compressibleTable(t, 4000)
	ct := compress(t, tb)
	one := ct.SizeBytes()
	c := New(one*2 + one/2) // room for two entries, not three
	if err := c.PutEntry("a", ct); err != nil {
		t.Fatal(err)
	}
	if err := c.PutEntry("b", ct); err != nil {
		t.Fatal(err)
	}
	if err := c.PutEntry("overflow", ct); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("third entry must not fit, got %v", err)
	}
	if c.Used() != 2*one {
		t.Fatalf("Used() = %d after rejected insert, want %d", c.Used(), 2*one)
	}
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if c.Used() != one {
		t.Fatalf("Used() = %d after delete, want %d", c.Used(), one)
	}
	if err := c.PutEntry("c", ct); err != nil {
		t.Fatalf("entry should fit after eviction: %v", err)
	}
	if c.Peak() > 2*one+one/2 {
		t.Fatalf("peak %d exceeded capacity", c.Peak())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted entry still resident")
	}
}

// TestGetEntryDoesNotDecode: GetEntry, the catalog's one lookup, hands out
// the entry as it was put, without paying a decompression.
func TestGetEntryDoesNotDecode(t *testing.T) {
	tb := compressibleTable(t, 1000)
	ct := compress(t, tb)
	c := New(1 << 30)
	if err := c.PutEntry("mv", ct); err != nil {
		t.Fatal(err)
	}
	e, ok := c.GetEntry("mv")
	if !ok {
		t.Fatal("GetEntry missed")
	}
	if e.SizeBytes() != ct.SizeBytes() {
		t.Fatalf("entry size %d, want %d", e.SizeBytes(), ct.SizeBytes())
	}
	if _, isCompressed := e.(*encoding.Compressed); !isCompressed {
		t.Fatal("entry lost its compressed representation")
	}
}

// badEntry decodes to an error, standing in for a corrupt compressed blob.
type badEntry struct{}

func (badEntry) SizeBytes() int64             { return 8 }
func (badEntry) Table() (*table.Table, error) { return nil, errors.New("boom") }

func TestDecodeFailureCountsAsMiss(t *testing.T) {
	c := New(1 << 20)
	if err := c.PutEntry("bad", badEntry{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("bad"); ok {
		t.Fatal("undecodable entry served as a hit")
	}
}
