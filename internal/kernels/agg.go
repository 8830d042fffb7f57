package kernels

import (
	"fmt"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// AggScan is a fused Aggregate∘Scan kernel, over a scanned table or an
// upstream join's chunked output. It hands the row engine's own AggAcc one
// batch of columns per row group — so grouping, accumulation order and
// output layout are byte-identical by construction — but builds only the
// columns the aggregation touches (group keys and aggregate arguments): a
// dictionary chunk gathered by code, any other chunk decoded. Row groups
// are walked serially, in order.
type AggScan struct {
	Scan  *engine.Scan
	Inner *HashJoinScan // set instead of Scan: aggregate an upstream join's chunked output
	Agg   *engine.Aggregate
	Orig  engine.Node
	need  []int // columns the aggregation reads, ascending
	St    *Stats
}

// inSchema returns the aggregated input's schema.
func (a *AggScan) inSchema() table.Schema {
	if a.Inner != nil {
		return a.Inner.Schema()
	}
	return a.Scan.Sch
}

// label names the input for error messages and plan display.
func (a *AggScan) label() string {
	if a.Inner != nil {
		return "(" + a.Inner.String() + ")"
	}
	return a.Scan.Name
}

// Schema implements engine.Node.
func (a *AggScan) Schema() table.Schema { return a.Agg.Schema() }

// String implements engine.Node.
func (a *AggScan) String() string {
	return fmt.Sprintf("KernelAggScan(%s, cols=%v)", a.label(), a.need)
}

// Run implements engine.Node.
func (a *AggScan) Run(ctx *engine.Context) (*table.Table, error) {
	var ct *encoding.Compressed
	var groups []int
	if a.Inner != nil {
		// Aggregate an upstream join's chunked output — a GROUP BY over a
		// join tree stays in code space. An inner row-engine fallback is
		// absorbed by accumulating its table directly (the subtree never
		// re-executes; AggAcc makes the result byte-identical either way).
		ict, t, err := a.Inner.RunChunked(ctx)
		if err != nil {
			return nil, err
		}
		if ict == nil {
			return a.accumulateTable(t)
		}
		ct, groups = ict, ict.RowGroups()
		if groups == nil {
			return nil, fmt.Errorf("kernels: aggregate %s: misaligned chunked input", a.label())
		}
	} else {
		ct, groups = resolveChunked(ctx, a.Scan)
		if ct == nil {
			a.St.Fallbacks++
			return a.Orig.Run(ctx)
		}
	}
	acc := a.Agg.NewAcc()
	cols := make([]*table.Vector, a.inSchema().NumCols())
	bufs := make([]table.Vector, len(cols))
	err := walkGroups(walk{ct: ct, groups: groups, st: a.St},
		func(cc *chunkCtx, _ *bitmap) error { return a.addGroup(cc, acc, cols, bufs) })
	if err != nil {
		return nil, fmt.Errorf("kernels: aggregate %s: %w", a.label(), err)
	}
	return acc.Result()
}

// accumulateTable folds a materialized input's needed columns through the
// accumulator — the absorption path for an inner operator that fell back.
func (a *AggScan) accumulateTable(t *table.Table) (*table.Table, error) {
	cols := make([]*table.Vector, len(t.Cols))
	for _, c := range a.need {
		cols[c] = t.Cols[c]
	}
	acc := a.Agg.NewAcc()
	if err := acc.AddCols(t.NumRows(), cols); err != nil {
		return nil, err
	}
	return acc.Result()
}

// addGroup folds one row group into the accumulator: cols receives the
// group's needed columns, built in bufs where they are not already decoded.
func (a *AggScan) addGroup(cc *chunkCtx, acc *engine.AggAcc, cols []*table.Vector, bufs []table.Vector) error {
	for _, c := range a.need {
		v, err := cc.column(c, &bufs[c])
		if err != nil {
			return err
		}
		cols[c] = v
	}
	return acc.AddCols(cc.rows, cols)
}
