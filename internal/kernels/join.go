package kernels

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/shortcircuit-db/sc/internal/chunkio"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// JoinSide is one input of a HashJoinScan: either a scanned table (with the
// compiled filter that was fused below the join, if any) or an upstream
// join consumed in chunked-output mode — which is how a join probes another
// join's output without either side materializing.
type JoinSide struct {
	Scan  *engine.Scan
	Pred  *Pred         // nil when the side is unfiltered; only with Scan
	Inner *HashJoinScan // set instead of Scan when the side is another join
}

// Schema returns the side's input schema.
func (s *JoinSide) Schema() table.Schema {
	if s.Inner != nil {
		return s.Inner.Schema()
	}
	return s.Scan.Sch
}

// label names the side for error messages and plan display.
func (s *JoinSide) label() string {
	if s.Inner != nil {
		return "(" + s.Inner.String() + ")"
	}
	return s.Scan.Name
}

// HashJoinScan is a kernel-side inner equi-join that probes dictionary
// codes instead of materialized values. Both sides resolve in chunked form
// — scans through the compressed resolver, inner joins by running them in
// chunked-output mode; each chunk's local dictionary codes are remapped
// through a shared encoding.KeyDict (one per key position), so the build
// table is keyed by dense shared ids rather than strings:
//
//   - the build (right) side hashes its selected rows by shared key id —
//     for dictionary chunks each distinct value is interned once, however
//     many rows carry it;
//   - the probe (left) side translates each chunk's dictionary against the
//     build side's keys (dictionary intersection): codes whose entry exists
//     only on the probe side remap to -1 and their rows drop before any
//     column decodes;
//   - only the surviving (leftRow, rightRow) pairs late-materialize, in the
//     row engine's exact output order (probe order, then build order).
//
// Key columns must be INT or STRING with equal types on both sides — the
// types the dict codec encodes, and the types whose value equality matches
// the row engine's key encoding exactly. Float keys (NaN and signed-zero
// bucketing) stay on the row engine. Output is byte-identical to Orig, the
// row-engine subtree, which doubles as the runtime fallback.
//
// A parent projection that only drops, duplicates or permutes columns can
// fuse into the join (Proj non-nil): joined columns nothing projects are
// never materialized — a dropped probe-side column is read for no row, a
// dropped build-side chunk is skipped outright.
//
// RunChunked emits the surviving pairs as compressed chunks instead of a
// table: dictionary-encoded output columns travel as remapped codes, so a
// two-level join tree composes in code space end to end.
type HashJoinScan struct {
	Left, Right         JoinSide
	LeftKeys, RightKeys []int
	// Proj maps each output column to a joined column (left columns first,
	// then right), fused from a parent columns-only projection. Nil means
	// the join's natural output.
	Proj []int
	// Sch is the output schema: the joined schema, or the projected one.
	Sch  table.Schema
	Orig engine.Node // HashJoin, or Project(HashJoin…) when Proj is fused
	St   *Stats
	Env  *Env // chunked-output environment (nil: defaults, no dict cache)
	ID   int  // stable operator label within the node, keys the dict cache
}

// Schema implements engine.Node.
func (j *HashJoinScan) Schema() table.Schema { return j.Sch }

// String implements engine.Node.
func (j *HashJoinScan) String() string {
	return fmt.Sprintf("KernelHashJoinScan(%s⋈%s, keys=%v=%v)",
		j.Left.label(), j.Right.label(), j.LeftKeys, j.RightKeys)
}

// joinGroup is the retained state of one processed row group: its chunk
// context plus the mapping from selected-row ordinals back to local rows.
type joinGroup struct {
	cc   *chunkCtx
	base int     // ordinal of the group's first selected row
	sel  []int32 // selected local rows in order; nil when every row selected
	n    int     // selected rows in the group
}

// outCol wires one output column to a side-local source column.
type outCol struct{ out, src int }

// localRow maps a selected-row ordinal back to the group-local row index.
func (g *joinGroup) localRow(ord int) int {
	if g.sel == nil {
		return ord - g.base
	}
	return int(g.sel[ord-g.base])
}

// resolveSides resolves both join inputs in chunked form. Scan sides probe
// the resolver first: they are cheap, and their failure means the kernel
// must fall back before any inner join has executed. Inner sides then run
// in chunked-output mode; a row-engine fallback inside one is absorbed
// by re-encoding its table (the subtree never re-executes). ok is false
// when the join as a whole must fall back to Orig.
func (j *HashJoinScan) resolveSides(ctx *engine.Context) (lct, rct *encoding.Compressed, lgroups, rgroups []int, ok bool, err error) {
	if j.Left.Inner == nil {
		if lct, lgroups = resolveChunked(ctx, j.Left.Scan); lct == nil {
			return nil, nil, nil, nil, false, nil
		}
	}
	if j.Right.Inner == nil {
		if rct, rgroups = resolveChunked(ctx, j.Right.Scan); rct == nil {
			return nil, nil, nil, nil, false, nil
		}
	}
	if j.Left.Inner != nil {
		if lct, lgroups, err = j.runInner(ctx, j.Left.Inner); err != nil {
			return nil, nil, nil, nil, false, err
		}
	}
	if j.Right.Inner != nil {
		if rct, rgroups, err = j.runInner(ctx, j.Right.Inner); err != nil {
			return nil, nil, nil, nil, false, err
		}
	}
	return lct, rct, lgroups, rgroups, true, nil
}

// runInner executes an inner join in chunked-output mode. When it fell
// back to the row engine, the materialized table is compressed once — the
// re-encode-hot-intermediates path — so the join above still probes codes.
func (j *HashJoinScan) runInner(ctx *engine.Context, op *HashJoinScan) (*encoding.Compressed, []int, error) {
	ct, t, err := op.RunChunked(ctx)
	if err != nil {
		return nil, nil, err
	}
	if ct == nil {
		opts := encoding.Options{}
		if j.Env != nil {
			opts = j.Env.Opts
		}
		if ct, err = encoding.FromTable(t, opts); err != nil {
			return nil, nil, err
		}
		for _, chunks := range ct.Cols {
			j.St.ReencodedChunks += int64(len(chunks))
		}
	}
	groups := ct.RowGroups()
	if groups == nil {
		// Builder and FromTable outputs are always aligned; guard anyway.
		return nil, nil, fmt.Errorf("misaligned chunked input from %s", op)
	}
	return ct, groups, nil
}

// Run implements engine.Node.
func (j *HashJoinScan) Run(ctx *engine.Context) (*table.Table, error) {
	lct, rct, lgroups, rgroups, ok, err := j.resolveSides(ctx)
	if err != nil {
		return nil, fmt.Errorf("kernels: join %s⋈%s: %w", j.Left.label(), j.Right.label(), err)
	}
	if !ok {
		j.St.Fallbacks++
		return j.Orig.Run(ctx)
	}
	out, err := j.runChunked(ctx, lct, lgroups, rct, rgroups)
	if err != nil {
		return nil, fmt.Errorf("kernels: join %s⋈%s: %w", j.Left.label(), j.Right.label(), err)
	}
	return out, nil
}

// RunChunked runs the join with its output leaving as compressed chunks,
// built from remapped dictionary codes wherever the source chunks allow and
// materializing values only for columns with no code-space path. It returns
// the chunked output, or — when the join fell back to the row engine — the
// row-engine table instead, never both; decoding the chunked output yields a
// table byte-identical to what Run returns.
func (j *HashJoinScan) RunChunked(ctx *engine.Context) (*encoding.Compressed, *table.Table, error) {
	lct, rct, lgroups, rgroups, ok, err := j.resolveSides(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("kernels: join %s⋈%s: %w", j.Left.label(), j.Right.label(), err)
	}
	if !ok {
		j.St.Fallbacks++
		t, err := j.Orig.Run(ctx)
		return nil, t, err
	}
	ct, err := j.joinChunked(ctx, lct, lgroups, rct, rgroups)
	if err != nil {
		return nil, nil, fmt.Errorf("kernels: join %s⋈%s: %w", j.Left.label(), j.Right.label(), err)
	}
	return ct, nil, nil
}

// buildState is the outcome of the build phase: the shared key space, the
// hash table of build-row ordinals, and the retained build-side groups.
type buildState struct {
	kds     []*encoding.KeyDict
	build   map[string][]int
	groups  []*joinGroup
	scratch []byte
	total   int
}

// buildPhase hashes every selected build-side row by its composite of
// shared key ids. Build groups stay alive (with whatever they parsed or
// decoded) until the surviving rows materialize.
func (j *HashJoinScan) buildPhase(rct *encoding.Compressed, rgroups []int) (*buildState, error) {
	nKeys := len(j.RightKeys)
	bs := &buildState{
		kds:     make([]*encoding.KeyDict, nKeys),
		build:   make(map[string][]int),
		scratch: make([]byte, 8*nKeys),
	}
	rsch := j.Right.Schema()
	for p, rc := range j.RightKeys {
		bs.kds[p] = encoding.NewKeyDict(rsch.Cols[rc].Type)
	}
	for g, rows := range rgroups {
		cc := newChunkCtx(rct, g, rows, j.St)
		jg := &joinGroup{cc: cc, base: bs.total}
		var sel *bitmap
		if j.Right.Pred != nil {
			var err error
			sel, err = j.Right.Pred.eval(cc)
			if err != nil {
				return nil, err
			}
			if sel.none() {
				cc.finish()
				bs.groups = append(bs.groups, jg)
				continue
			}
			if !sel.all() {
				jg.sel = make([]int32, 0, sel.count())
			} else {
				sel = nil
			}
		}
		ids := make([]func(int) int, nKeys)
		for p, rc := range j.RightKeys {
			fn, err := keyReader(cc, rc, bs.kds[p], true)
			if err != nil {
				return nil, err
			}
			ids[p] = fn
		}
		for i := 0; i < rows; i++ {
			if sel != nil && !sel.get(i) {
				continue
			}
			for p := range ids {
				binary.LittleEndian.PutUint64(bs.scratch[8*p:], uint64(ids[p](i)))
			}
			matches := bs.build[string(bs.scratch)]
			bs.build[string(bs.scratch)] = append(matches, bs.total)
			if jg.sel != nil {
				jg.sel = append(jg.sel, int32(i))
			}
			bs.total++
			jg.n++
		}
		bs.groups = append(bs.groups, jg)
	}
	j.St.JoinBuildRows += int64(bs.total)
	return bs, nil
}

// outLayout wires each output column to a joined column, either the join's
// natural output or the fused projection. Joined columns nothing reads are
// never materialized.
func (j *HashJoinScan) outLayout() (leftOut, rightOut []outCol) {
	leftW := j.Left.Schema().NumCols()
	proj := j.Proj
	if proj == nil {
		proj = make([]int, leftW+j.Right.Schema().NumCols())
		for i := range proj {
			proj[i] = i
		}
	}
	for oc, jc := range proj {
		if jc < leftW {
			leftOut = append(leftOut, outCol{oc, jc})
		} else {
			rightOut = append(rightOut, outCol{oc, jc - leftW})
		}
	}
	return leftOut, rightOut
}

func (j *HashJoinScan) runChunked(ctx *engine.Context, lct *encoding.Compressed, lgroups []int, rct *encoding.Compressed, rgroups []int) (*table.Table, error) {
	bp, err := j.buildPhase(rct, rgroups)
	if err != nil {
		return nil, err
	}
	leftOut, rightOut := j.outLayout()

	// Probe phase: translate each left chunk's codes against the build-side
	// keys and emit surviving pairs. The build table and shared key
	// dictionaries are read-only from here, so probe partitions across
	// borrowed tokens — each with its own output table, ordinal list,
	// scratch and Stats — and the partials concatenate in partition order,
	// which is the serial probe order.
	out := table.New(j.Sch)
	var rightIdx []int // build-side ordinals per output row
	if pp := planPartitions(ctx, lct, lgroups); pp != nil {
		outs := make([]*table.Table, len(pp.parts))
		idxs := make([][]int, len(pp.parts))
		sts := make([]Stats, len(pp.parts))
		err := pp.run(func(p, lo, hi int) error {
			pout := table.New(j.Sch)
			ri, err := j.probeMat(lct, lgroups, lo, hi, bp, leftOut, &sts[p], pout)
			outs[p], idxs[p] = pout, ri
			return err
		})
		pp.done()
		foldStats(j.St, sts)
		if err != nil {
			return nil, err
		}
		for p := range outs {
			appendTable(out, outs[p])
			rightIdx = append(rightIdx, idxs[p]...)
		}
	} else {
		if rightIdx, err = j.probeMat(lct, lgroups, 0, len(lgroups), bp, leftOut, j.St, out); err != nil {
			return nil, err
		}
	}

	if err := j.gatherRight(out, rightOut, rightIdx, bp.groups); err != nil {
		return nil, err
	}
	for _, jg := range bp.groups {
		if jg.n > 0 { // empty-selection groups finished during the build
			jg.cc.finish()
		}
	}
	return out, nil
}

// probeMat probes the left row groups in [lo, hi) against the build table,
// appending surviving pairs' left values to out (probe order: pairs for
// one group are contiguous and their left rows non-decreasing, so appends
// stay in output order and RLE cursors never rewind) and their build-side
// ordinals to the returned list. st receives the range's counters; it must
// be thread-local when ranges run concurrently.
func (j *HashJoinScan) probeMat(lct *encoding.Compressed, lgroups []int, lo, hi int, bp *buildState, leftOut []outCol, st *Stats, out *table.Table) ([]int, error) {
	nKeys := len(j.LeftKeys)
	scratch := make([]byte, 8*nKeys)
	var rightIdx []int
	probed := 0
	for g := lo; g < hi; g++ {
		rows := lgroups[g]
		cc := newChunkCtx(lct, g, rows, st)
		var sel *bitmap
		if j.Left.Pred != nil {
			var err error
			sel, err = j.Left.Pred.eval(cc)
			if err != nil {
				return nil, err
			}
			if sel.none() {
				cc.finish()
				continue
			}
			if sel.all() {
				sel = nil
			}
		}
		ids := make([]func(int) int, nKeys)
		for p, lc := range j.LeftKeys {
			fn, err := keyReader(cc, lc, bp.kds[p], false)
			if err != nil {
				return nil, err
			}
			ids[p] = fn
		}
		// Column readers are built only when the group's first match
		// arrives: a group whose keys all miss never touches its
		// non-key chunks.
		var readers []func(int) table.Value
		var counted []bool
	rowLoop:
		for i := 0; i < rows; i++ {
			if sel != nil && !sel.get(i) {
				continue
			}
			probed++
			for p := range ids {
				id := ids[p](i)
				if id < 0 {
					continue rowLoop // key exists only on the probe side
				}
				binary.LittleEndian.PutUint64(scratch[8*p:], uint64(id))
			}
			matches := bp.build[string(scratch)]
			if len(matches) == 0 {
				continue
			}
			if readers == nil {
				readers = make([]func(int) table.Value, len(leftOut))
				counted = make([]bool, len(leftOut))
				for k, oc := range leftOut {
					fn, cnt, err := cc.reader(oc.src)
					if err != nil {
						return nil, err
					}
					readers[k], counted[k] = fn, cnt
				}
			}
			for _, r := range matches {
				for k, oc := range leftOut {
					v := readers[k](i)
					dst := out.Cols[oc.out]
					if counted[k] {
						switch dst.Type {
						case table.Int:
							dst.Ints = append(dst.Ints, v.I)
						case table.Float:
							dst.Floats = append(dst.Floats, v.F)
						default:
							dst.Strs = append(dst.Strs, v.S)
						}
					} else {
						appendValue(st, dst, v)
					}
				}
				rightIdx = append(rightIdx, r)
			}
		}
		cc.finish()
	}
	st.JoinProbeRows += int64(probed)
	return rightIdx, nil
}

// gatherRight scatters the build-side rows of the surviving pairs into the
// projected right output columns. Output positions are bucketed per right
// row group and visited in local-row order, so each group's chunks are read
// once, monotonically, decoding only what the survivors demand.
func (j *HashJoinScan) gatherRight(out *table.Table, rightOut []outCol, rightIdx []int, groups []*joinGroup) error {
	nPairs := len(rightIdx)
	for _, oc := range rightOut {
		dst := out.Cols[oc.out]
		switch dst.Type {
		case table.Int:
			dst.Ints = make([]int64, nPairs)
		case table.Float:
			dst.Floats = make([]float64, nPairs)
		default:
			dst.Strs = make([]string, nPairs)
		}
	}
	if nPairs == 0 {
		return nil
	}
	byGroup := bucketByGroup(rightIdx, groups)
	for g, positions := range byGroup {
		if len(positions) == 0 {
			continue
		}
		jg := groups[g]
		for _, oc := range rightOut {
			fn, counted, err := jg.cc.reader(oc.src)
			if err != nil {
				return err
			}
			dst := out.Cols[oc.out]
			for _, pos := range positions {
				setValue(j.St, dst, pos, fn(jg.localRow(rightIdx[pos])), counted)
			}
		}
	}
	return nil
}

// bucketByGroup buckets output positions by right row group (ordinals are
// dense per group), sorted by group-local row so chunk reads stay
// monotonic.
func bucketByGroup(rightIdx []int, groups []*joinGroup) [][]int {
	byGroup := make([][]int, len(groups))
	for pos, ord := range rightIdx {
		g := sort.Search(len(groups), func(k int) bool {
			return groups[k].base+groups[k].n > ord
		})
		byGroup[g] = append(byGroup[g], pos)
	}
	for g, positions := range byGroup {
		if len(positions) == 0 {
			continue
		}
		jg := groups[g]
		sort.Slice(positions, func(a, b int) bool {
			return jg.localRow(rightIdx[positions[a]]) < jg.localRow(rightIdx[positions[b]])
		})
	}
	return byGroup
}

// joinChunked runs the join emitting compressed chunks: the probe records
// surviving (left group/row, build ordinal) pairs, and output columns then
// assemble through a chunkio.Builder — dictionary-encoded source columns as
// remapped codes, everything else as late-materialized values — in the row
// engine's exact output order (probe order, then build order).
func (j *HashJoinScan) joinChunked(ctx *engine.Context, lct *encoding.Compressed, lgroups []int, rct *encoding.Compressed, rgroups []int) (*encoding.Compressed, error) {
	bp, err := j.buildPhase(rct, rgroups)
	if err != nil {
		return nil, err
	}
	leftOut, rightOut := j.outLayout()

	// Probe phase: record pairs, touching only key columns. Left groups stay
	// alive until the assembly phase reads the survivors. The pair lists
	// partition across borrowed tokens (thread-local lists concatenated in
	// partition order = serial probe order); the builder assembly below is
	// serial, single-threaded state.
	leftGroups := make([]*joinGroup, len(lgroups))
	var pairLeft []int64 // left (group << 32 | local row) per output row
	var pairRight []int  // build-side ordinal per output row
	if pp := planPartitions(ctx, lct, lgroups); pp != nil {
		lefts := make([][]int64, len(pp.parts))
		rights := make([][]int, len(pp.parts))
		sts := make([]Stats, len(pp.parts))
		err := pp.run(func(p, lo, hi int) error {
			var err error
			lefts[p], rights[p], err = j.probePairs(lct, lgroups, lo, hi, bp, &sts[p], leftGroups)
			return err
		})
		pp.done()
		foldStats(j.St, sts)
		if err != nil {
			return nil, err
		}
		for p := range lefts {
			pairLeft = append(pairLeft, lefts[p]...)
			pairRight = append(pairRight, rights[p]...)
		}
	} else {
		if pairLeft, pairRight, err = j.probePairs(lct, lgroups, 0, len(lgroups), bp, j.St, leftGroups); err != nil {
			return nil, err
		}
	}

	b := j.Env.builderFor(j.Sch, j.ID)
	for _, oc := range leftOut {
		if err := j.assembleLeft(b, leftGroups, pairLeft, oc); err != nil {
			return nil, err
		}
	}
	if err := j.assembleRight(b, bp.groups, pairRight, rightOut); err != nil {
		return nil, err
	}
	for _, jg := range leftGroups {
		jg.cc.finish()
	}
	for _, jg := range bp.groups {
		if jg.n > 0 {
			jg.cc.finish()
		}
	}
	ct, err := b.Finish()
	if err != nil {
		return nil, err
	}
	j.St.addBuilder(b.Counters)
	return ct, nil
}

// probePairs probes the left row groups in [lo, hi), recording surviving
// (left group/row, build ordinal) pairs without touching non-key columns.
// It fills the [lo, hi) slots of leftGroups — disjoint across concurrent
// ranges — and st must be thread-local when ranges run concurrently.
func (j *HashJoinScan) probePairs(lct *encoding.Compressed, lgroups []int, lo, hi int, bp *buildState, st *Stats, leftGroups []*joinGroup) ([]int64, []int, error) {
	nKeys := len(j.LeftKeys)
	scratch := make([]byte, 8*nKeys)
	var pairLeft []int64
	var pairRight []int
	probed := 0
	for g := lo; g < hi; g++ {
		rows := lgroups[g]
		cc := newChunkCtx(lct, g, rows, st)
		leftGroups[g] = &joinGroup{cc: cc}
		var sel *bitmap
		if j.Left.Pred != nil {
			var err error
			sel, err = j.Left.Pred.eval(cc)
			if err != nil {
				return nil, nil, err
			}
			if sel.none() {
				continue
			}
			if sel.all() {
				sel = nil
			}
		}
		ids := make([]func(int) int, nKeys)
		for p, lc := range j.LeftKeys {
			fn, err := keyReader(cc, lc, bp.kds[p], false)
			if err != nil {
				return nil, nil, err
			}
			ids[p] = fn
		}
	rowLoop:
		for i := 0; i < rows; i++ {
			if sel != nil && !sel.get(i) {
				continue
			}
			probed++
			for p := range ids {
				id := ids[p](i)
				if id < 0 {
					continue rowLoop
				}
				binary.LittleEndian.PutUint64(scratch[8*p:], uint64(id))
			}
			for _, r := range bp.build[string(scratch)] {
				pairLeft = append(pairLeft, int64(g)<<32|int64(i))
				pairRight = append(pairRight, r)
			}
		}
	}
	st.JoinProbeRows += int64(probed)
	return pairLeft, pairRight, nil
}

// assembleLeft streams one probe-side output column into the builder. Pairs
// are in probe order — contiguous per group with non-decreasing local rows
// — so each group's chunk is remapped (or its reader advanced) once.
func (j *HashJoinScan) assembleLeft(b *chunkio.Builder, groups []*joinGroup, pairLeft []int64, oc outCol) error {
	curG := -1
	var codes []uint64
	var ids []int32
	var read func(int) table.Value
	var counted bool
	for _, p := range pairLeft {
		g, i := int(p>>32), int(p&0xffffffff)
		if g != curG {
			curG = g
			cc := groups[g].cc
			codes, ids, read, counted = nil, nil, nil, false
			cs, err := cc.parse(oc.src)
			if err != nil {
				return err
			}
			if cs.dict != nil && cs.vec == nil {
				if rIds, ok := b.Remap(oc.out, cs.dict); ok {
					cods, err := cs.dict.Codes()
					if err != nil {
						return err
					}
					codes, ids = cods, rIds
				}
			}
			if codes == nil {
				if read, counted, err = cc.reader(oc.src); err != nil {
					return err
				}
			}
		}
		if codes != nil {
			b.AppendCode(oc.out, ids[codes[i]])
		} else {
			v := read(i)
			if !counted {
				countMaterialized(j.St, v)
			}
			b.AppendValue(oc.out, v)
		}
	}
	return nil
}

// assembleRight scatters the build-side output columns into the builder in
// output order. A column whose every contributing chunk is dictionary-
// encoded travels as remapped codes; otherwise values scatter into a
// pre-sized vector exactly like the materializing gather.
func (j *HashJoinScan) assembleRight(b *chunkio.Builder, groups []*joinGroup, rightIdx []int, rightOut []outCol) error {
	nPairs := len(rightIdx)
	if nPairs == 0 {
		return nil
	}
	byGroup := bucketByGroup(rightIdx, groups)
	for _, oc := range rightOut {
		codes := make([]int32, nPairs)
		inCode := true
		for g, positions := range byGroup {
			if len(positions) == 0 {
				continue
			}
			jg := groups[g]
			cs, err := jg.cc.parse(oc.src)
			if err != nil {
				return err
			}
			if cs.dict == nil || cs.vec != nil {
				inCode = false
				break
			}
			ids, ok := b.Remap(oc.out, cs.dict)
			if !ok {
				inCode = false
				break
			}
			cods, err := cs.dict.Codes()
			if err != nil {
				return err
			}
			for _, pos := range positions {
				codes[pos] = ids[cods[jg.localRow(rightIdx[pos])]]
			}
		}
		if inCode {
			for _, id := range codes {
				b.AppendCode(oc.out, id)
			}
			continue
		}
		typ := j.Sch.Cols[oc.out].Type
		dst := &table.Vector{Type: typ}
		switch typ {
		case table.Int:
			dst.Ints = make([]int64, nPairs)
		case table.Float:
			dst.Floats = make([]float64, nPairs)
		default:
			dst.Strs = make([]string, nPairs)
		}
		for g, positions := range byGroup {
			if len(positions) == 0 {
				continue
			}
			jg := groups[g]
			fn, counted, err := jg.cc.reader(oc.src)
			if err != nil {
				return err
			}
			for _, pos := range positions {
				setValue(j.St, dst, pos, fn(jg.localRow(rightIdx[pos])), counted)
			}
		}
		if err := b.AppendVector(oc.out, dst, nil); err != nil {
			return err
		}
	}
	return nil
}

// keyReader returns a per-row shared-key-id lookup for one key column of a
// row group. Dictionary chunks remap their entry table through kd — once
// per distinct value, with add selecting build-side interning versus
// probe-side intersection (absent entries yield -1). Other codecs read the
// key column through the chunk's cheapest accessor (RLE runs advance a
// cursor; everything else decodes just this column) and intern per row.
func keyReader(cc *chunkCtx, col int, kd *encoding.KeyDict, add bool) (func(i int) int, error) {
	cs, err := cc.parse(col)
	if err != nil {
		return nil, err
	}
	if cs.dict != nil {
		var ids []int
		if add {
			ids = cs.dict.RemapAdd(kd)
		} else {
			ids = cs.dict.RemapLookup(kd)
		}
		codes, _ := cs.dict.Codes()
		return func(i int) int { return ids[codes[i]] }, nil
	}
	fn, err := cc.accessor(col)
	if err != nil {
		return nil, err
	}
	if add {
		return func(i int) int { return kd.Add(fn(i)) }, nil
	}
	return func(i int) int { return kd.Lookup(fn(i)) }, nil
}
