package kernels

import (
	"fmt"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// AggScan is a fused Aggregate∘(Filter?)∘Scan kernel. It feeds the row
// engine's own AggAcc accumulator — so grouping, accumulation order and
// output layout are byte-identical by construction — but reads only the
// columns the aggregation touches (group keys and aggregate arguments),
// skips whole row groups the selection vector eliminates, and consumes RLE
// runs without expanding them:
//
//   - a global COUNT(*) touches no column at all: each row group
//     contributes its (selected) row count in O(1);
//   - when every needed column of a chunk is run-length encoded, the runs
//     are walked in lockstep and each constant segment is folded in with
//     one AddRepeat call;
//   - otherwise values are read through late-materializing accessors
//     (dictionary lookups stay in code space) for selected rows only.
type AggScan struct {
	Scan  *engine.Scan
	Inner *HashJoinScan // set instead of Scan: aggregate an upstream join's chunked output
	Pred  *Pred         // nil when the subtree had no filter; only with Scan
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
	// Per-partition accumulators merge in partition order. Aggregates with
	// an output-relevant float sum keep to one partition: their result
	// depends on the exact addition order, so only the serial walk is
	// byte-identical.
	w := walk{ct: ct, groups: groups, pred: a.Pred, st: a.St}
	if a.Agg.NewAcc().ExactMergeable() {
		w.ctx = ctx
	}
	type partial struct {
		acc *engine.AggAcc
		row []table.Value
	}
	parts, err := walkGroups(w,
		func() *partial {
			return &partial{a.Agg.NewAcc(), make([]table.Value, a.inSchema().NumCols())}
		},
		func(p *partial, cc *chunkCtx, sel *bitmap) error { return a.addGroup(cc, p.acc, p.row, sel) })
	if err != nil {
		return nil, fmt.Errorf("kernels: aggregate %s: %w", a.label(), err)
	}
	for _, p := range parts[1:] {
		parts[0].acc.Merge(p.acc)
	}
	return parts[0].acc.Result()
}

// accumulateTable folds a materialized input through the accumulator in
// row order — the absorption path for an inner operator that fell back.
func (a *AggScan) accumulateTable(t *table.Table) (*table.Table, error) {
	acc := a.Agg.NewAcc()
	row := make([]table.Value, t.Schema.NumCols())
	n := t.NumRows()
	for i := 0; i < n; i++ {
		for _, c := range a.need {
			row[c] = t.Cols[c].Value(i)
		}
		if err := acc.Add(row); err != nil {
			return nil, err
		}
	}
	return acc.Result()
}

// addGroup folds one row group into the accumulator.
func (a *AggScan) addGroup(cc *chunkCtx, acc *engine.AggAcc, row []table.Value, sel *bitmap) error {
	// No needed columns (e.g. global COUNT(*)): the whole group collapses
	// to one AddRepeat without touching a single chunk.
	if len(a.need) == 0 {
		n := cc.rows
		if sel != nil {
			n = sel.count()
		}
		return acc.AddRepeat(row, n)
	}

	// Run-level fast path: every needed column run-length encoded and no
	// partial selection — walk the runs in lockstep and fold each constant
	// segment in one call, never expanding a run.
	if sel == nil && a.allRLE(cc) {
		return a.addRuns(cc, acc, row)
	}

	readers := make([]func(int) table.Value, len(a.need))
	for k, c := range a.need {
		r, err := cc.accessor(c)
		if err != nil {
			return err
		}
		readers[k] = r
	}
	for i := 0; i < cc.rows; i++ {
		if sel != nil && !sel.get(i) {
			continue
		}
		for k, c := range a.need {
			row[c] = readers[k](i)
		}
		if err := acc.Add(row); err != nil {
			return err
		}
	}
	return nil
}

// allRLE reports whether every needed column's chunk is RLE and parses
// them.
func (a *AggScan) allRLE(cc *chunkCtx) bool {
	for _, c := range a.need {
		if cc.chunk(c).Codec != encoding.RLE {
			return false
		}
	}
	for _, c := range a.need {
		if _, err := cc.parse(c); err != nil {
			return false
		}
	}
	return true
}

// addRuns walks the needed columns' runs in lockstep: each maximal segment
// where all of them are constant becomes a single AddRepeat.
func (a *AggScan) addRuns(cc *chunkCtx, acc *engine.AggAcc, row []table.Value) error {
	type cursor struct {
		runs []encoding.Run
		idx  int // current run
		left int // rows left in the current run
	}
	curs := make([]cursor, len(a.need))
	for k, c := range a.need {
		runs := cc.cols[c].runs
		curs[k] = cursor{runs: runs}
		if len(runs) > 0 {
			curs[k].left = runs[0].Len
		}
	}
	remaining := cc.rows
	for remaining > 0 {
		seg := remaining
		for k := range curs {
			row[a.need[k]] = curs[k].runs[curs[k].idx].Val
			if curs[k].left < seg {
				seg = curs[k].left
			}
		}
		if err := acc.AddRepeat(row, seg); err != nil {
			return err
		}
		remaining -= seg
		for k := range curs {
			curs[k].left -= seg
			if curs[k].left == 0 && curs[k].idx+1 < len(curs[k].runs) {
				curs[k].idx++
				curs[k].left = curs[k].runs[curs[k].idx].Len
			}
		}
	}
	return nil
}
