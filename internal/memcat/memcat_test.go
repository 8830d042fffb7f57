package memcat

import (
	"errors"
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
)

func intTable(t *testing.T, rows int) *table.Table {
	t.Helper()
	tb := table.New(table.NewSchema(table.Column{Name: "x", Type: table.Int}))
	for i := 0; i < rows; i++ {
		if err := tb.AppendRow(table.IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestPutGetDelete(t *testing.T) {
	c := New(1 << 20)
	tb := intTable(t, 100)
	if err := c.Put("a", tb); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("a")
	if !ok || got.NumRows() != 100 {
		t.Fatalf("Get: %v %v", got, ok)
	}
	if c.Used() != tb.ByteSize() {
		t.Fatalf("Used = %d, want %d", c.Used(), tb.ByteSize())
	}
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if c.Used() != 0 {
		t.Fatalf("Used after delete = %d", c.Used())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("deleted table still resident")
	}
	if err := c.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestCapacityEnforced(t *testing.T) {
	small := intTable(t, 10)
	c := New(small.ByteSize())
	if err := c.Put("a", small); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", small); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-capacity put: %v", err)
	}
	// Failed put must not corrupt accounting.
	if c.Used() != small.ByteSize() {
		t.Fatalf("Used = %d after failed put", c.Used())
	}
	// After freeing, the second put fits.
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", small); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceAccountsDelta(t *testing.T) {
	big := intTable(t, 1000)
	small := intTable(t, 10)
	c := New(big.ByteSize())
	if err := c.Put("a", big); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("a", small); err != nil {
		t.Fatal(err)
	}
	if c.Used() != small.ByteSize() {
		t.Fatalf("Used = %d, want %d", c.Used(), small.ByteSize())
	}
}

func TestPeakTracksHighWater(t *testing.T) {
	a, b := intTable(t, 100), intTable(t, 100)
	c := New(a.ByteSize() + b.ByteSize())
	_ = c.Put("a", a)
	_ = c.Put("b", b)
	_ = c.Delete("a")
	_ = c.Delete("b")
	if c.Peak() != a.ByteSize()+b.ByteSize() {
		t.Fatalf("Peak = %d", c.Peak())
	}
	if c.Used() != 0 {
		t.Fatalf("Used = %d", c.Used())
	}
}

func TestStatsAndNames(t *testing.T) {
	c := New(1 << 20)
	_ = c.Put("b", intTable(t, 1))
	_ = c.Put("a", intTable(t, 1))
	if _, ok := c.Get("zz"); ok {
		t.Fatal("absent name served")
	}
	if want := 2 * intTable(t, 1).ByteSize(); c.Used() != want || c.Peak() != want {
		t.Fatalf("Used = %d, Peak = %d, want %d", c.Used(), c.Peak(), want)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
}

func TestNegativeCapacityClamps(t *testing.T) {
	c := New(-5)
	if c.Capacity() != 0 {
		t.Fatalf("Capacity = %d", c.Capacity())
	}
	if err := c.Put("a", intTable(t, 1)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("put into zero catalog: %v", err)
	}
}
