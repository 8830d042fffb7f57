package kernels

import (
	"sync"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
)

// This file holds the kernels' one walk over row groups (walkGroups) and
// its partitioned (chunk-parallel) mode: a walk splits its row-group list
// into contiguous ranges and evaluates them on tokens borrowed from the
// scheduler-wide budget (engine.Context.Sched) — the same pool the exec
// Controller's node dispatcher draws from, so node-level and intra-node
// parallelism compose under one bound. Borrowing uses TryAcquire only and
// falls back to one partition on the caller's token, so nesting can never
// deadlock; each borrowed partition also reserves its estimated in-flight
// decoded bytes against the scheduler's byte ceiling, keeping
// concurrency × memory bounded.
//
// Only the join's probe partitions; the build phase and AggScan walk on the
// caller's token alone.
//
// Determinism: partitions are contiguous row-group ranges evaluated with
// thread-local chunk contexts, selection vectors and Stats, and their
// results come back in partition order — the probe's pair lists
// concatenate in probe order. The merged result is byte-identical to the
// one-partition walk, and Stats fields are all sums, so counters match
// exactly too.

// partPlan is one planned partitioned execution: contiguous [lo, hi)
// row-group ranges, one per token held (the caller's own plus borrowed).
type partPlan struct {
	parts    [][2]int
	ctx      *engine.Context
	borrowed int   // extra tokens to return
	reserved int64 // bytes reserved against the scheduler ceiling
}

// decodedEstimate is the pessimistic in-flight bytes of a walk over the whole
// table: the encoded payload of its chunks times a nominal expansion factor.
// It only gates how wide a walk borrows, so a rough bound is fine.
func decodedEstimate(ct *encoding.Compressed) int64 {
	var enc int64
	for _, chunks := range ct.Cols {
		for _, ch := range chunks {
			enc += int64(len(ch.Data))
		}
	}
	const expansion = 4
	return enc * expansion
}

// planPartitions borrows tokens for a partitioned walk of the row-group
// list. It returns nil when the walk stays on the caller's token: no
// context lent, parallel scan disabled, no scheduler, a single row group, or
// no idle tokens to borrow. A non-nil plan must be released with done().
func planPartitions(ctx *engine.Context, ct *encoding.Compressed, groups []int) *partPlan {
	if ctx == nil || !ctx.ParallelScan || ctx.Sched == nil || len(groups) < 2 {
		return nil
	}
	sc := ctx.Sched
	// Widen one token at a time; each extra partition needs both a token
	// and headroom under the byte ceiling. The caller's own token covers
	// partition 0.
	maxExtra := len(groups) - 1
	if t := sc.Tokens() - 1; t < maxExtra {
		maxExtra = t
	}
	pp := &partPlan{ctx: ctx}
	perPart := decodedEstimate(ct) / int64(len(groups))
	for pp.borrowed < maxExtra {
		if !sc.TryAcquire() {
			break
		}
		if !sc.TryReserveBytes(perPart) {
			sc.Release()
			break
		}
		pp.borrowed++
		pp.reserved += perPart
	}
	if pp.borrowed == 0 {
		return nil
	}
	pp.parts = splitGroups(groups, pp.borrowed+1)
	return pp
}

// done returns the borrowed tokens and byte reservations.
func (pp *partPlan) done() {
	sc := pp.ctx.Sched
	for i := 0; i < pp.borrowed; i++ {
		sc.Release()
	}
	sc.ReleaseBytes(pp.reserved)
}

// splitGroups cuts the row-group list into at most width contiguous ranges
// balanced by row count (never by splitting a group).
func splitGroups(groups []int, width int) [][2]int {
	total := 0
	for _, rows := range groups {
		total += rows
	}
	parts := make([][2]int, 0, width)
	lo, acc := 0, 0
	for g, rows := range groups {
		acc += rows
		// Cut when this partition reached its proportional share of rows
		// and enough groups remain to fill the rest.
		if acc*width >= total*(len(parts)+1) && len(groups)-g-1 >= width-len(parts)-1 && len(parts) < width-1 {
			parts = append(parts, [2]int{lo, g + 1})
			lo = g + 1
		}
	}
	if lo < len(groups) {
		parts = append(parts, [2]int{lo, len(groups)})
	}
	return parts
}

// run executes fn once per partition — partition 0 on the calling
// goroutine, the rest on the borrowed tokens — and waits for all of them.
// fn receives the partition index and its [lo, hi) group range and must
// only touch partition-local state. The earliest partition's error wins,
// matching what a serial walk would have surfaced first.
func (pp *partPlan) run(fn func(p, lo, hi int) error) error {
	errs := make([]error, len(pp.parts))
	var wg sync.WaitGroup
	for p := 1; p < len(pp.parts); p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = fn(p, pp.parts[p][0], pp.parts[p][1])
		}(p)
	}
	errs[0] = fn(0, pp.parts[0][0], pp.parts[0][1])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// addStats folds o (a partition's thread-local counters) into st. Every
// field is a sum, so folding partitions in any order reproduces the serial
// totals.
func addStats(st, o *Stats) {
	st.Lowered += o.Lowered
	st.Fallbacks += o.Fallbacks
	st.ChunksSkipped += o.ChunksSkipped
	st.CodeFilteredRows += o.CodeFilteredRows
	st.DecodesAvoided += o.DecodesAvoided
	st.DecodedBytes += o.DecodedBytes
	st.JoinBuildRows += o.JoinBuildRows
	st.JoinProbeRows += o.JoinProbeRows
	st.ChunksPassed += o.ChunksPassed
	st.ReencodedChunks += o.ReencodedChunks
	st.DictReused += o.DictReused
}

// walk describes one pass over the row groups of a chunked table.
type walk struct {
	// ctx lends the scheduler's idle tokens to the walk; nil keeps it on
	// the caller's token alone (build sides, aggregates).
	ctx    *engine.Context
	ct     *encoding.Compressed
	groups []int
	pred   *Pred  // nil selects every row
	st     *Stats // receives every partition's counters
	// keep, when non-nil, has one slot per row group: each group's context
	// is stored there instead of being finished, for a caller that reads
	// more columns after the walk and finishes the contexts itself.
	keep []*chunkCtx
}

// walkGroups is the kernels' one loop over row groups. It cuts the group
// list into contiguous partitions — one on the caller's token, or
// planPartitions' ranges when idle tokens can be borrowed — and for every
// group evaluates the predicate and hands the groups that keep at least one
// row to body, together with the partition's state from newPart. sel is nil
// when every row of the group is selected. Each partition counts into its
// own Stats; they fold into w.st when the walk ends, and the partition
// states come back in partition order, which is the serial group order.
func walkGroups[P any](w walk, newPart func() P, body func(part P, cc *chunkCtx, sel *bitmap) error) ([]P, error) {
	pp := &partPlan{parts: [][2]int{{0, len(w.groups)}}}
	if borrowed := planPartitions(w.ctx, w.ct, w.groups); borrowed != nil {
		pp = borrowed
		defer pp.done()
	}
	parts := make([]P, len(pp.parts))
	sts := make([]Stats, len(pp.parts))
	err := pp.run(func(p, lo, hi int) error {
		part := newPart()
		parts[p] = part
		for g := lo; g < hi; g++ {
			cc := newChunkCtx(w.ct, g, w.groups[g], &sts[p])
			if w.keep != nil {
				w.keep[g] = cc
			}
			var sel *bitmap
			selected := cc.rows
			if w.pred != nil {
				var err error
				if sel, err = w.pred.eval(cc); err != nil {
					return err
				}
				if selected = sel.count(); selected == cc.rows {
					sel = nil
				}
			}
			// A group no row survives is left without touching another column.
			if selected > 0 {
				if err := body(part, cc, sel); err != nil {
					return err
				}
			}
			if w.keep == nil {
				cc.finish()
			}
		}
		return nil
	})
	for i := range sts {
		addStats(w.st, &sts[i])
	}
	// Kept contexts outlive their partition: what the caller reads through
	// them from here on counts straight into the shared Stats.
	for _, cc := range w.keep {
		if cc != nil {
			cc.st = w.st
		}
	}
	return parts, err
}
