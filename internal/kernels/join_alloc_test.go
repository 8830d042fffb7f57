package kernels

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// allocJoinProbeRows and allocJoinBuildRows size the fixed synthetic join
// of TestJoinRunChunkedAllocations and BenchmarkHashJoinRunChunked: every
// probe row finds exactly one of the unique build keys.
const (
	allocJoinProbeRows = 100_000
	allocJoinBuildRows = 10_000
)

// maxAllocPerRawByte bounds the bytes a chunked-output join allocates per
// raw byte of its output on the synthetic join. Growing the builder's
// pending buffers and the pair slices by append, and copying every gathered
// vector into the builder, allocated 5.8 B per raw byte; allocating each
// output column once, at its final size, allocated 2.9; decoding each
// gathered chunk into the scan's one reused buffer, not a fresh vector,
// allocates 2.1.
const maxAllocPerRawByte = 2.5

// allocJoinSide is one side of the synthetic join: an INT key column and,
// beside it, one column per codec the join's output assembly treats
// differently — a dictionary STRING (remapped codes), a sorted INT (delta,
// gathered values) and a FLOAT (gathered values).
func allocJoinSide(prefix string, n int, key func(i int) int64) *table.Table {
	tb := table.New(table.NewSchema(
		table.Column{Name: prefix + "k", Type: table.Int},
		table.Column{Name: prefix + "s", Type: table.Str},
		table.Column{Name: prefix + "i", Type: table.Int},
		table.Column{Name: prefix + "f", Type: table.Float},
	))
	for i := 0; i < n; i++ {
		tb.Cols[0].Ints = append(tb.Cols[0].Ints, key(i))
		tb.Cols[1].Strs = append(tb.Cols[1].Strs, fmt.Sprintf("%s-cat-%d", prefix, i%50))
		tb.Cols[2].Ints = append(tb.Cols[2].Ints, int64(3*i))
		tb.Cols[3].Floats = append(tb.Cols[3].Floats, float64(i%977)/8)
	}
	return tb
}

// allocJoin lowers the synthetic join and returns it with a context that
// resolves both sides in chunked form.
func allocJoin(tb testing.TB) (*HashJoinScan, *engine.Context) {
	tb.Helper()
	tabs := map[string]*table.Table{
		"L": allocJoinSide("l", allocJoinProbeRows, func(i int) int64 { return int64(i*7919) % allocJoinBuildRows }),
		"R": allocJoinSide("r", allocJoinBuildRows, func(i int) int64 { return int64(i) }),
	}
	cts := make(map[string]*encoding.Compressed, len(tabs))
	for name, t := range tabs {
		ct, err := encoding.FromTable(t, encoding.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		for ci, want := range map[int]encoding.CodecID{1: encoding.Dict, 2: encoding.Delta} {
			for _, ch := range ct.Cols[ci] {
				if ch.Codec != want {
					tb.Fatalf("%s column %d stored as %s, want %s", name, ci, ch.Codec, want)
				}
			}
		}
		cts[name] = ct
	}
	ctx := &engine.Context{ResolveCompressed: func(n string) (*encoding.Compressed, error) { return cts[n], nil }}
	node := &engine.HashJoin{
		Left:      &engine.Scan{Name: "L", Sch: tabs["L"].Schema},
		Right:     &engine.Scan{Name: "R", Sch: tabs["R"].Schema},
		LeftKeys:  []int{0},
		RightKeys: []int{0},
	}
	j, ok := LowerEnv(node, &Stats{}, encoding.Options{}).(*HashJoinScan)
	if !ok {
		tb.Fatal("synthetic join did not lower onto the join kernel")
	}
	return j, ctx
}

// TestJoinRunChunkedAllocations pins how much a chunked-output join
// allocates per raw output byte on a fixed synthetic join: the best of
// three runs, measured as the growth of runtime.MemStats.TotalAlloc.
func TestJoinRunChunkedAllocations(t *testing.T) {
	j, ctx := allocJoin(t)
	best := -1.0
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ct, tbl, err := j.RunChunked(ctx)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if ct == nil || tbl != nil {
			t.Fatal("synthetic join fell back to the row engine")
		}
		if ct.NRows != allocJoinProbeRows {
			t.Fatalf("join emitted %d rows, want %d", ct.NRows, allocJoinProbeRows)
		}
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(ct.RawBytes)
		if best < 0 || ratio < best {
			best = ratio
		}
	}
	t.Logf("allocated %.3f B per raw output byte", best)
	if best > maxAllocPerRawByte {
		t.Fatalf("chunked join allocated %.3f B per raw output byte, bound %.1f", best, maxAllocPerRawByte)
	}
}

// BenchmarkHashJoinRunChunked runs the synthetic join in chunked-output
// mode: 100,000 output rows of 8 columns.
func BenchmarkHashJoinRunChunked(b *testing.B) {
	j, ctx := allocJoin(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := j.RunChunked(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
