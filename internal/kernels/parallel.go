package kernels

import (
	"sync"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// This file implements the kernels' partitioned (chunk-parallel) mode: a
// scan-shaped kernel splits its row-group list into contiguous ranges and
// evaluates them on tokens borrowed from the scheduler-wide budget
// (engine.Context.Sched) — the same pool the exec Controller's node
// dispatcher draws from, so node-level and intra-node parallelism compose
// under one bound. Borrowing uses TryAcquire only and falls back to the
// serial path, so nesting can never deadlock; each borrowed partition also
// reserves its estimated in-flight decoded bytes against the scheduler's
// byte ceiling, keeping concurrency × memory bounded.
//
// Determinism: partitions are contiguous row-group ranges evaluated with
// thread-local chunk contexts, selection vectors and Stats, and their
// results merge in partition order — output tables concatenate, AggAcc
// partials merge via engine.AggAcc.Merge (only when ExactMergeable),
// join pairs concatenate in probe order. The merged result is
// byte-identical to the serial walk, and Stats fields are all sums, so
// counters match serial totals exactly too.

// partPlan is one planned partitioned execution: contiguous [lo, hi)
// row-group ranges, one per token held (the caller's own plus borrowed).
type partPlan struct {
	parts    [][2]int
	ctx      *engine.Context
	borrowed int   // extra tokens to return
	reserved int64 // bytes reserved against the scheduler ceiling
}

// decodedEstimate is the pessimistic in-flight bytes of a partition: the
// encoded payload of its chunks times a nominal expansion factor. It only
// gates how wide a scan borrows, so a rough bound is fine.
func decodedEstimate(ct *encoding.Compressed, lo, hi int) int64 {
	var enc int64
	for _, chunks := range ct.Cols {
		for g := lo; g < hi && g < len(chunks); g++ {
			enc += int64(len(chunks[g].Data))
		}
	}
	const expansion = 4
	return enc * expansion
}

// planPartitions borrows tokens for a partitioned walk of the row-group
// list. It returns nil when the scan should run serially: parallel scan
// disabled, no scheduler, a single row group, or no idle tokens to borrow.
// A non-nil plan must be released with done().
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
	perPart := decodedEstimate(ct, 0, len(groups)) / int64(len(groups))
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

// add folds another Stats (a partition's thread-local counters) into st.
// Every field is a sum, so folding partitions in any order reproduces the
// serial totals.
func (st *Stats) add(o *Stats) {
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

// foldStats folds a batch of per-partition Stats into dst.
func foldStats(dst *Stats, sts []Stats) {
	for i := range sts {
		dst.add(&sts[i])
	}
}

// appendTable appends src's rows to dst column-wise (schemas identical by
// construction: both came from the same operator).
func appendTable(dst, src *table.Table) {
	for ci := range dst.Cols {
		appendAll(dst.Cols[ci], src.Cols[ci])
	}
}

// --- partitioned Run paths ---

// runParallel is the partitioned FilterScan walk: each partition filters
// its groups into a thread-local table, and the partials concatenate in
// partition order — the groups arrive in the same order as the serial
// loop, so the output is byte-identical.
func (f *FilterScan) runParallel(pp *partPlan, ct *encoding.Compressed, groups []int) (*table.Table, error) {
	defer pp.done()
	outs := make([]*table.Table, len(pp.parts))
	sts := make([]Stats, len(pp.parts))
	err := pp.run(func(p, lo, hi int) error {
		out, st := table.New(f.Scan.Sch), &sts[p]
		for g := lo; g < hi; g++ {
			cc := newChunkCtx(ct, g, groups[g], st)
			sel, err := f.Pred.eval(cc)
			if err != nil {
				return err
			}
			if err := cc.materialize(out, sel); err != nil {
				return err
			}
			cc.finish()
		}
		outs[p] = out
		return nil
	})
	for i := range sts {
		f.St.add(&sts[i])
	}
	if err != nil {
		return nil, err
	}
	out := outs[0]
	for _, t := range outs[1:] {
		appendTable(out, t)
	}
	return out, nil
}

// runParallel is the partitioned ProjectScan walk; same merge shape as
// FilterScan with the projection's column mapping.
func (p *ProjectScan) runParallel(pp *partPlan, ct *encoding.Compressed, groups []int) (*table.Table, error) {
	defer pp.done()
	outs := make([]*table.Table, len(pp.parts))
	sts := make([]Stats, len(pp.parts))
	err := pp.run(func(pi, lo, hi int) error {
		out, st := table.New(p.Sch), &sts[pi]
		for g := lo; g < hi; g++ {
			cc := newChunkCtx(ct, g, groups[g], st)
			var sel *bitmap
			if p.Pred != nil {
				var err error
				sel, err = p.Pred.eval(cc)
				if err != nil {
					return err
				}
				if sel.none() {
					cc.finish()
					continue
				}
			}
			for oc, ic := range p.Cols {
				if err := cc.materializeCol(out.Cols[oc], ic, sel); err != nil {
					return err
				}
			}
			cc.finish()
		}
		outs[pi] = out
		return nil
	})
	for i := range sts {
		p.St.add(&sts[i])
	}
	if err != nil {
		return nil, err
	}
	out := outs[0]
	for _, t := range outs[1:] {
		appendTable(out, t)
	}
	return out, nil
}

// runParallel is the partitioned AggScan walk: each partition folds its
// groups into a thread-local AggAcc, and the partials merge in partition
// order. Only called when the accumulator is ExactMergeable — counts,
// integer sums, min/max — where the merged result is bit-identical to a
// serial pass; output-relevant float sums (AVG, SUM over floats) keep the
// serial path because their value depends on addition order.
func (a *AggScan) runParallel(pp *partPlan, ct *encoding.Compressed, groups []int) (*table.Table, error) {
	defer pp.done()
	accs := make([]*engine.AggAcc, len(pp.parts))
	sts := make([]Stats, len(pp.parts))
	err := pp.run(func(p, lo, hi int) error {
		acc, st := a.Agg.NewAcc(), &sts[p]
		row := make([]table.Value, a.inSchema().NumCols())
		for g := lo; g < hi; g++ {
			cc := newChunkCtx(ct, g, groups[g], st)
			var sel *bitmap
			if a.Pred != nil {
				var err error
				sel, err = a.Pred.eval(cc)
				if err != nil {
					return err
				}
				if sel.none() {
					cc.finish()
					continue
				}
			}
			if err := a.addGroup(cc, acc, row, sel); err != nil {
				return err
			}
			cc.finish()
		}
		accs[p] = acc
		return nil
	})
	for i := range sts {
		a.St.add(&sts[i])
	}
	if err != nil {
		return nil, err
	}
	acc := accs[0]
	for _, part := range accs[1:] {
		acc.Merge(part)
	}
	return acc.Result()
}
