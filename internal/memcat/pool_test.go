package memcat

import (
	"sync"
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
)

func poolTable(rows int) *table.Table {
	t := table.New(table.NewSchema(table.Column{Name: "a", Type: table.Int}))
	for i := 0; i < rows; i++ {
		if err := t.AppendRow(table.IntValue(int64(i))); err != nil {
			panic(err)
		}
	}
	return t
}

func TestPoolAggregatesCatalogUsage(t *testing.T) {
	p := NewPool(1 << 20)
	a := p.NewCatalog(1 << 19)
	b := p.NewCatalog(1 << 19)

	ta := poolTable(16)
	tb := poolTable(64)
	if err := a.Put("x", ta); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("y", tb); err != nil {
		t.Fatal(err)
	}
	want := ta.ByteSize() + tb.ByteSize()
	if got := p.Stats().Used; got != want {
		t.Fatalf("pool Used = %d, want %d", got, want)
	}
	if got := p.Stats().PeakUsed; got != want {
		t.Fatalf("pool PeakUsed = %d, want %d", got, want)
	}
	// Replacing an entry charges only the delta.
	if err := a.Put("x", tb); err != nil {
		t.Fatal(err)
	}
	want = 2 * tb.ByteSize()
	if got := p.Stats().Used; got != want {
		t.Fatalf("pool Used after replace = %d, want %d", got, want)
	}
	if err := a.Delete("x"); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("y"); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Used; got != 0 {
		t.Fatalf("pool Used after deletes = %d, want 0", got)
	}
	if got := p.Stats().PeakUsed; got != 2*tb.ByteSize() {
		t.Fatalf("pool PeakUsed = %d, want %d", got, 2*tb.ByteSize())
	}
}

func TestPoolDetachCreditsLeftoverBytes(t *testing.T) {
	p := NewPool(1 << 20)
	c := p.NewCatalog(1 << 20)
	tb := poolTable(32)
	if err := c.Put("leak", tb); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Used; got != tb.ByteSize() {
		t.Fatalf("pool Used = %d, want %d", got, tb.ByteSize())
	}
	if left := c.Detach(); left != tb.ByteSize() {
		t.Fatalf("Detach credited %d, want %d", left, tb.ByteSize())
	}
	if got := p.Stats().Used; got != 0 {
		t.Fatalf("pool Used after Detach = %d, want 0", got)
	}
	// A detached catalog keeps working but no longer touches the pool.
	if err := c.Put("more", poolTable(8)); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Used; got != 0 {
		t.Fatalf("detached catalog charged the pool: Used = %d", got)
	}
	if left := c.Detach(); left != 0 {
		t.Fatalf("second Detach credited %d, want 0", left)
	}
}

func TestPoolConcurrentCatalogs(t *testing.T) {
	p := NewPool(1 << 30)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := p.NewCatalog(1 << 26)
			tb := poolTable(100)
			for i := 0; i < 50; i++ {
				if err := c.Put("t", tb); err != nil {
					t.Error(err)
					return
				}
				if err := c.Delete("t"); err != nil {
					t.Error(err)
					return
				}
			}
			c.Detach()
		}()
	}
	wg.Wait()
	if got := p.Stats().Used; got != 0 {
		t.Fatalf("pool Used after all catalogs drained = %d, want 0", got)
	}
}
