package encoding

import (
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
)

func TestAdaptiveChunkRows(t *testing.T) {
	cases := []struct {
		opts     Options
		n        int
		want     int
		maxChunk int
	}{
		// Auto: tiny tables get a single chunk sized to the table.
		{Options{}, 1, 1, 0},
		{Options{}, 100, 100, 0},
		{Options{}, DefaultChunkRows, DefaultChunkRows, 0},
		// Auto: just over the default balances instead of leaving a
		// 1-row trailing chunk.
		{Options{}, DefaultChunkRows + 1, DefaultChunkRows/2 + 1, 0},
		// Explicit sizes are honored and clamped.
		{Options{ChunkRows: 7}, 1000, 7, 0},
		{Options{ChunkRows: MaxChunkRows + 1}, 1000, MaxChunkRows, 0},
		// Degenerate.
		{Options{}, 0, 1, 0},
	}
	for _, c := range cases {
		if got := c.opts.chunkRowsFor(c.n); got != c.want {
			t.Errorf("chunkRowsFor(%d) with %+v = %d, want %d", c.n, c.opts, got, c.want)
		}
	}
}

func TestAdaptiveChunkingBalances(t *testing.T) {
	n := DefaultChunkRows + 5
	tb := table.New(table.NewSchema(table.Column{Name: "x", Type: table.Int}))
	for i := 0; i < n; i++ {
		if err := tb.AppendRow(table.IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	ct, err := FromTable(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := ct.Cols[0]
	if len(chunks) != 2 {
		t.Fatalf("expected 2 balanced chunks, got %d", len(chunks))
	}
	if diff := chunks[0].Rows - chunks[1].Rows; diff < -1 || diff > 1 {
		t.Fatalf("unbalanced chunks: %d and %d rows", chunks[0].Rows, chunks[1].Rows)
	}
}

// TestTinyMVSizeRegression pins the compact-framing win: a one-row
// COUNT(*) result must stay well under the ~40 bytes the fixed-width v2
// framing inflated it to, and SizeBytes must equal the serialized length
// (colfmt asserts the latter too; here it guards the framing model).
func TestTinyMVSizeRegression(t *testing.T) {
	tb := table.New(table.NewSchema(table.Column{Name: "count", Type: table.Int}))
	if err := tb.AppendRow(table.IntValue(12345)); err != nil {
		t.Fatal(err)
	}
	ct, err := FromTable(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	size := ct.SizeBytes()
	if size > 32 {
		t.Fatalf("one-row COUNT(*) result accounts %d bytes; want <= 32 (framing must not dominate)", size)
	}
}
