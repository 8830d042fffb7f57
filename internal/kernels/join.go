package kernels

import (
	"encoding/binary"
	"fmt"
	"slices"

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

// HashJoinScan is a kernel-side inner equi-join over chunked inputs. Both
// sides resolve in chunked form — scans through the compressed resolver,
// inner joins by running them in chunked-output mode — and it works one row
// group and one typed column at a time. Only the key columns are read to
// join: each key column of a row group becomes a column of ids in a shared
// encoding.KeyDict (one per key position) — a dictionary chunk looked up
// once per entry, any other codec as one decoded vector — so the build
// table is keyed by dense shared ids, not values (dense INT keys, such as
// surrogate keys, are looked up by offset in the KeyDict's window rather
// than hashed, as engine.AggAcc's group keys are):
//
//   - the build (right) side keys its selected rows by shared key id (by a
//     dense composite id on a multi-key join) and lays them out by key with
//     one counting pass, an array indexed by id rather than a hash map; a
//     build side whose single key is unique is one build ordinal per key id;
//   - the probe (left) side looks its keys up without interning: a key the
//     build side never saw yields -1 and its row drops before any other
//     column decodes. Against a unique single-key build side the probe
//     writes every row's pair and advances by a 0/1 hit, with no branch per
//     row;
//   - only the surviving (leftRow, rightRow) pairs late-materialize, in the
//     row engine's exact output order (probe order, then build order). A
//     probe-side column is gathered per probe-group segment from its chunk
//     as a typed slice — a decoded vector by index, dictionary entries by
//     code — or passed on as remapped codes. A build-side column is laid
//     out once by build ordinal (the selected rows of every build group
//     with a survivor, as values or remapped codes) and then gathered by
//     each pair's ordinal in one sequential pass.
//
// Key columns must be INT or STRING with equal types on both sides — the
// types whose value equality matches the row engine's key encoding
// exactly. Float keys (NaN and signed-zero bucketing) stay on the row
// engine. Output is byte-identical to Orig, the row-engine subtree, which
// doubles as the runtime fallback.
//
// A parent projection that only drops, duplicates or permutes columns can
// fuse into the join (Proj non-nil): joined columns nothing projects are
// never materialized — a dropped probe-side column is read for no row, a
// dropped build-side chunk is skipped outright.
//
// RunChunked emits the surviving pairs as compressed chunks instead of a
// table, through a chunkio.Builder sized from the pair count so each output
// column is allocated once. Dictionary-encoded output columns travel as
// remapped codes, appended in bulk (Builder.AppendCodes), so a two-level
// join tree composes in code space end to end; every other column is
// gathered straight into the builder's pending vector (Builder.AppendWith)
// or, on the build side, gathered by ordinal into a vector handed over to
// the builder, which keeps it (Builder.AppendVector). Run gathers the same
// typed columns into a table.
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
	Opts encoding.Options // codec policy for the chunks it emits
}

// Schema implements engine.Node.
func (j *HashJoinScan) Schema() table.Schema { return j.Sch }

// String implements engine.Node.
func (j *HashJoinScan) String() string {
	return fmt.Sprintf("KernelHashJoinScan(%s⋈%s, keys=%v=%v)",
		j.Left.label(), j.Right.label(), j.LeftKeys, j.RightKeys)
}

// joinGroup is a build-side row group with at least one selected row: its
// chunk context plus the mapping from selected-row ordinals back to local
// rows.
type joinGroup struct {
	cc   *chunkCtx
	base int     // ordinal of the group's first selected row
	sel  []int32 // selected local rows in order; nil when every row selected
	n    int     // selected rows in the group
}

// outCol wires one output column to a side-local source column.
type outCol struct{ out, src int }

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
		if ct, err = encoding.FromTable(t, j.Opts); err != nil {
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
	jd, err := j.join(ctx)
	if err != nil {
		return nil, err
	}
	if jd == nil {
		return j.Orig.Run(ctx)
	}
	// Late-materialize only the surviving pairs, one typed column at a time:
	// probe-side columns gather straight into their output vector, build-side
	// ones by build ordinal.
	out := table.New(j.Sch)
	nPairs := len(jd.right)
	leftOut, rightOut := j.outLayout()
	for _, oc := range leftOut {
		dst := table.MakeVector(j.Sch.Cols[oc.out].Type, 0, nPairs)
		if err := jd.gatherLeft(dst, oc.src); err != nil {
			return nil, j.wrap(err)
		}
		out.Cols[oc.out] = dst
	}
	if len(rightOut) > 0 {
		dm := jd.survivors()
		for _, oc := range rightOut {
			dst, err := jd.rightValues(oc.src, j.Sch.Cols[oc.out].Type, dm)
			if err != nil {
				return nil, j.wrap(err)
			}
			out.Cols[oc.out] = dst
		}
	}
	jd.finish()
	return out, nil
}

// RunChunked runs the join with its output leaving as compressed chunks,
// built from remapped dictionary codes wherever the source chunks allow and
// materializing values only for columns with no code-space path. It returns
// the chunked output, or — when the join fell back to the row engine — the
// row-engine table instead, never both; decoding the chunked output yields a
// table byte-identical to what Run returns.
func (j *HashJoinScan) RunChunked(ctx *engine.Context) (*encoding.Compressed, *table.Table, error) {
	jd, err := j.join(ctx)
	if err != nil {
		return nil, nil, err
	}
	if jd == nil {
		t, err := j.Orig.Run(ctx)
		return nil, t, err
	}
	// Output columns assemble through a chunkio.Builder — dictionary-encoded
	// source columns as remapped codes, everything else as typed columns of
	// late-materialized values appended in bulk — in the row engine's exact
	// output order (probe order, then build order).
	b := chunkio.NewBuilder(j.Sch, j.Opts, len(jd.right))
	ct, err := j.assemble(b, jd)
	if err != nil {
		return nil, nil, j.wrap(err)
	}
	addBuilder(j.St, b.Counters)
	return ct, nil, nil
}

// assemble appends every output column of the surviving pairs to b and
// finishes it.
func (j *HashJoinScan) assemble(b *chunkio.Builder, jd *joined) (*encoding.Compressed, error) {
	leftOut, rightOut := j.outLayout()
	for _, oc := range leftOut {
		if err := j.assembleLeft(b, jd, oc); err != nil {
			return nil, err
		}
	}
	if err := j.assembleRight(b, jd, rightOut); err != nil {
		return nil, err
	}
	jd.finish()
	return b.Finish()
}

func (j *HashJoinScan) wrap(err error) error {
	return fmt.Errorf("kernels: join %s⋈%s: %w", j.Left.label(), j.Right.label(), err)
}

// joined is what both output forms assemble from: the build table, the
// surviving (left row, build row) pairs in output order, and the row-group
// contexts of both sides, kept — with whatever they parsed or decoded —
// until the survivors have been read.
type joined struct {
	kds []*encoding.KeyDict // shared key space, one per key position
	// composite numbers the distinct composites of shared key ids densely
	// on a join over several keys; nil on a single-key join, whose build
	// key is the shared key id itself.
	composite map[string]int32
	// start and rows are the build table, laid out by build key: the build
	// ordinals of key k are rows[start[k]:start[k+1]], ascending. unique
	// reports that no key has more than one build row, so no probe row
	// joins more than once. A unique single-key build table with rows is
	// ordOf instead (start and rows nil): ordOf[k+1] is key k's build
	// ordinal, or -1 when k has no build row, and ordOf[0] is -1 for a probe
	// key the build side never saw.
	start, rows []int32
	ordOf       []int32
	unique      bool
	nBuild      int          // build ordinals: the selected build rows
	groups      []*joinGroup // build-side groups with selected rows

	// The surviving pairs in output order: the probe group's local row and
	// the build ordinal of every output row. segs cuts the output rows into
	// contiguous runs from one probe group each, in group order.
	leftRows, right []int32
	segs            []leftSeg

	leftCCs, rightCCs []*chunkCtx
}

// leftSeg ends a run of output rows whose probe rows all come from one
// probe group: the run is [previous segment's end, end).
type leftSeg struct{ group, end int }

// finish settles the counters of every row group either side touched.
func (jd *joined) finish() {
	for _, cc := range jd.leftCCs {
		cc.finish()
	}
	for _, cc := range jd.rightCCs {
		cc.finish()
	}
}

// key returns row i's build key from the per-key-position ids of its row
// group: the shared key id on a single-key join, the dense number of its
// composite of shared key ids otherwise. add numbers a new composite (the
// build side); without it a key the build side never saw is -1.
func (jd *joined) key(ids [][]int32, i int, add bool, scratch []byte) int32 {
	if jd.composite == nil {
		return ids[0][i]
	}
	for p := range ids {
		id := ids[p][i]
		if id < 0 {
			return -1 // key exists only on the probe side
		}
		binary.LittleEndian.PutUint32(scratch[4*p:], uint32(id))
	}
	k, ok := jd.composite[string(scratch)]
	switch {
	case ok:
		return k
	case !add:
		return -1
	}
	k = int32(len(jd.composite))
	jd.composite[string(scratch)] = k
	return k
}

// index lays the build table out by key with one counting pass over the
// build keys, which are in ordinal order, so each key's ordinals come out
// ascending — the row engine's build order. A unique single-key build
// table becomes ordOf, in the counts' storage.
func (jd *joined) index(keys []int32) {
	nk := len(jd.composite)
	if jd.composite == nil {
		nk = jd.kds[0].Len()
	}
	jd.nBuild = len(keys)
	jd.start = make([]int32, nk+1)
	jd.unique = true
	for _, k := range keys {
		jd.start[k+1]++
		if jd.start[k+1] > 1 {
			jd.unique = false
		}
	}
	if jd.unique && jd.composite == nil && len(keys) > 0 {
		jd.ordOf, jd.start = jd.start, nil
		for k := range jd.ordOf {
			jd.ordOf[k] = -1
		}
		for ord, k := range keys {
			jd.ordOf[k+1] = int32(ord)
		}
		return
	}
	for k := 1; k <= nk; k++ {
		jd.start[k] += jd.start[k-1]
	}
	next := append([]int32(nil), jd.start[:nk]...)
	jd.rows = make([]int32, len(keys))
	for ord, k := range keys {
		jd.rows[next[k]] = int32(ord)
		next[k]++
	}
}

// join resolves both sides, hashes the build side and probes it. It returns
// nil when the join must fall back to Orig.
func (j *HashJoinScan) join(ctx *engine.Context) (*joined, error) {
	lct, rct, lgroups, rgroups, ok, err := j.resolveSides(ctx)
	if err != nil {
		return nil, j.wrap(err)
	}
	if !ok {
		j.St.Fallbacks++
		return nil, nil
	}
	jd := &joined{
		leftCCs:  make([]*chunkCtx, len(lgroups)),
		rightCCs: make([]*chunkCtx, len(rgroups)),
	}
	for _, rc := range j.RightKeys {
		jd.kds = append(jd.kds, encoding.NewKeyDict(j.Right.Schema().Cols[rc].Type))
	}
	if len(j.RightKeys) > 1 {
		jd.composite = make(map[string]int32)
	}
	if err := j.buildPhase(jd, rct, rgroups); err != nil {
		return nil, j.wrap(err)
	}
	if err := j.probePhase(jd, lct, lgroups); err != nil {
		return nil, j.wrap(err)
	}
	return jd, nil
}

// buildPhase keys every selected build-side row by its shared key ids and
// indexes the build table.
func (j *HashJoinScan) buildPhase(jd *joined, rct *encoding.Compressed, rgroups []int) error {
	var keys []int32 // build key per ordinal
	ids := make([][]int32, len(j.RightKeys))
	scratch := make([]byte, 4*len(j.RightKeys))
	err := walkGroups(walk{ct: rct, groups: rgroups, pred: j.Right.Pred, st: j.St, keep: jd.rightCCs},
		func(cc *chunkCtx, sel *bitmap) error {
			if err := keyIDs(cc, j.RightKeys, jd.kds, true, ids); err != nil {
				return err
			}
			jg := &joinGroup{cc: cc, base: len(keys)}
			if sel != nil {
				jg.sel = make([]int32, 0, sel.count())
			}
			for i := 0; i < cc.rows; i++ {
				if sel != nil && !sel.get(i) {
					continue
				}
				keys = append(keys, jd.key(ids, i, true, scratch))
				if sel != nil {
					jg.sel = append(jg.sel, int32(i))
				}
			}
			jg.n = len(keys) - jg.base
			jd.groups = append(jd.groups, jg)
			return nil
		})
	j.St.JoinBuildRows += int64(len(keys))
	if err != nil {
		return err
	}
	jd.index(keys)
	return nil
}

// probePhase translates each left group's key columns into shared key ids
// and appends the surviving pairs to jd in probe order, touching only key
// columns. When every build key is unique the pairs are at most the probe
// rows, and their slices are reserved once at that size (unless the build
// side is empty, when there are none).
func (j *HashJoinScan) probePhase(jd *joined, lct *encoding.Compressed, lgroups []int) error {
	if jd.unique && jd.nBuild > 0 {
		jd.leftRows = make([]int32, 0, lct.NRows)
		jd.right = make([]int32, 0, lct.NRows)
	}
	ids := make([][]int32, len(j.LeftKeys))
	scratch := make([]byte, 4*len(j.LeftKeys))
	return walkGroups(walk{ct: lct, groups: lgroups, pred: j.Left.Pred, st: j.St, keep: jd.leftCCs},
		func(cc *chunkCtx, sel *bitmap) error {
			if err := keyIDs(cc, j.LeftKeys, jd.kds, false, ids); err != nil {
				return err
			}
			var probed int
			if jd.ordOf != nil {
				probed = jd.probeUnique(ids[0][:cc.rows], sel)
			} else {
				probed = jd.probe(ids, cc.rows, sel, scratch)
			}
			cc.st.JoinProbeRows += int64(probed)
			if prev := segEnd(jd.segs); len(jd.leftRows) > prev {
				jd.segs = append(jd.segs, leftSeg{group: cc.group, end: len(jd.leftRows)})
			}
			return nil
		})
}

// probe appends one probe group's pairs, given the per-key-position ids of
// its rows, looking each selected row's key up in the build table. It
// returns the rows probed.
func (jd *joined) probe(ids [][]int32, rows int, sel *bitmap, scratch []byte) int {
	probed := 0
	for i := 0; i < rows; i++ {
		if sel != nil && !sel.get(i) {
			continue
		}
		probed++
		k := jd.key(ids, i, false, scratch)
		if k < 0 {
			continue
		}
		for _, r := range jd.rows[jd.start[k]:jd.start[k+1]] {
			jd.leftRows = append(jd.leftRows, int32(i))
			jd.right = append(jd.right, r)
		}
	}
	return probed
}

// probeUnique appends one probe group's pairs against a unique single-key
// build table (ordOf) without a branch per row: each row's pair is written
// at the next free slot of the pair slices, which advances by a 0/1 hit
// that folds in a miss and the row's selection bit. It returns the rows
// probed.
func (jd *joined) probeUnique(ids []int32, sel *bitmap) int {
	jd.leftRows = slices.Grow(jd.leftRows, len(ids))
	jd.right = slices.Grow(jd.right, len(ids))
	n := len(jd.right)
	left, right := jd.leftRows[:n+len(ids)], jd.right[:n+len(ids)]
	ordOf := jd.ordOf
	probed := len(ids)
	if sel == nil {
		for i, k := range ids {
			r := ordOf[k+1]
			left[n], right[n] = int32(i), r
			n += int(uint32(^r) >> 31) // 1 unless r is -1
		}
	} else {
		probed = sel.count()
		for i, k := range ids {
			r := ordOf[k+1]
			left[n], right[n] = int32(i), r
			n += int(uint32(^r)>>31) & int(sel.words[i>>6]>>uint(i&63)&1)
		}
	}
	jd.leftRows, jd.right = left[:n], right[:n]
	return probed
}

// segEnd is the end of the last segment, 0 when there is none.
func segEnd(segs []leftSeg) int {
	if len(segs) == 0 {
		return 0
	}
	return segs[len(segs)-1].end
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

// gatherLeft appends one probe-side column of the surviving pairs to dst.
// Pairs are in probe order — one segment per group, with non-decreasing
// local rows — so each group's chunk is gathered from once, as a column.
func (jd *joined) gatherLeft(dst *table.Vector, src int) error {
	lo := 0
	for _, s := range jd.segs {
		if err := jd.leftCCs[s.group].gather(src, jd.leftRows[lo:s.end], dst); err != nil {
			return err
		}
		lo = s.end
	}
	return nil
}

// demand is the surviving pairs' demand on the build side, shared by every
// build-side output column: cnt[ord] counts the pairs of build ordinal ord,
// and live[g] reports that build group g has at least one.
type demand struct {
	cnt  []int32
	live []bool
}

// survivors counts the surviving pairs per build ordinal and marks the
// build groups with any.
func (jd *joined) survivors() demand {
	dm := demand{cnt: make([]int32, jd.nBuild), live: make([]bool, len(jd.groups))}
	for _, ord := range jd.right {
		dm.cnt[ord]++
	}
	for g, jg := range jd.groups {
		for _, c := range dm.cnt[jg.base : jg.base+jg.n] {
			if c > 0 {
				dm.live[g] = true
				break
			}
		}
	}
	return dm
}

// rightValues gathers one build-side column of the surviving pairs into a
// fresh vector of type t. The column is first laid out by build ordinal:
// every selected row of each build group with a survivor, read once in
// ascending local-row order (the rows of a group without one stay zero, and
// no pair reads them). One sequential pass then gathers each pair's value
// by its ordinal. Values served from a decoded chunk were counted at
// decode; values late-materialized from dictionary codes count once per
// surviving pair, as a gather per pair would have counted them.
func (jd *joined) rightValues(src int, t table.Type, dm demand) (*table.Vector, error) {
	byOrd := table.MakeVector(t, jd.nBuild, jd.nBuild)
	for g, jg := range jd.groups {
		if !dm.live[g] {
			continue
		}
		// The group's ordinal range, emptied: appending the group's n rows
		// writes them into byOrd in place.
		dst := byOrd.Slice(jg.base, jg.base+jg.n)
		dst.Reset()
		cc := jg.cc
		dv, err := cc.dict(src)
		if err != nil {
			return nil, err
		}
		if dv == nil {
			vec, err := cc.decode(src, cc.scratch)
			if err != nil {
				return nil, err
			}
			if jg.sel == nil {
				dst.AppendVector(vec)
			} else {
				dst.AppendRows(vec, jg.sel)
			}
			continue
		}
		codes, _ := dv.Codes()
		for k, c := range dm.cnt[jg.base : jg.base+jg.n] {
			r := k
			if jg.sel != nil {
				r = int(jg.sel[k])
			}
			code := int(codes[r])
			dst.AppendAt(&dv.Vector, code)
			if t == table.Int {
				cc.st.DecodedBytes += 8 * int64(c)
			} else {
				cc.st.DecodedBytes += (int64(len(dv.Strs[code])) + 16) * int64(c)
			}
		}
	}
	out := table.MakeVector(t, 0, len(jd.right))
	out.AppendRows(byOrd, jd.right)
	return out, nil
}

// rightIDs lays one build-side column out by build ordinal as remapped
// output-dictionary ids into byOrd, one slot per build ordinal, remapping
// each build group with a survivor in group order. It reports false when
// some such group's chunk is not a dictionary chunk or the column cannot
// take its codes; the column then goes by value.
func (jd *joined) rightIDs(b *chunkio.Builder, oc outCol, dm demand, byOrd []int32) (bool, error) {
	for g, jg := range jd.groups {
		if !dm.live[g] {
			continue
		}
		dv, err := jg.cc.dict(oc.src)
		if err != nil || dv == nil {
			return false, err
		}
		ids, ok := b.Remap(oc.out, dv)
		if !ok {
			return false, nil
		}
		codes, _ := dv.Codes()
		out := byOrd[jg.base : jg.base+jg.n]
		if jg.sel == nil {
			for k := range out {
				out[k] = ids[codes[k]]
			}
		} else {
			for k, r := range jg.sel {
				out[k] = ids[codes[r]]
			}
		}
	}
	return true, nil
}

// assembleLeft appends one probe-side output column to the builder, one
// probe group's segment at a time: as remapped codes when the group's chunk
// is dictionary-encoded and the column takes codes, else as values gathered
// straight into the column's pending vector.
func (j *HashJoinScan) assembleLeft(b *chunkio.Builder, jd *joined, oc outCol) error {
	var out []int32 // one segment's remapped codes, reused
	lo := 0
	for _, s := range jd.segs {
		rows := jd.leftRows[lo:s.end]
		lo = s.end
		cc := jd.leftCCs[s.group]
		dv, err := cc.dict(oc.src)
		if err != nil {
			return err
		}
		if dv != nil {
			if ids, ok := b.Remap(oc.out, dv); ok {
				codes, _ := dv.Codes()
				if cap(out) < len(rows) {
					out = make([]int32, len(rows))
				}
				out = out[:len(rows)]
				for k, i := range rows {
					out[k] = ids[codes[i]]
				}
				b.AppendCodes(oc.out, out)
				continue
			}
		}
		if err := b.AppendWith(oc.out, func(dst *table.Vector) error {
			return cc.gather(oc.src, rows, dst)
		}); err != nil {
			return err
		}
	}
	return nil
}

// assembleRight appends the build-side output columns to the builder in
// output order, each laid out once by build ordinal and gathered by every
// pair's ordinal. A column whose every contributing chunk is dictionary-
// encoded travels as remapped codes; otherwise its values gather into a
// fresh vector sized to the pairs, which the builder keeps.
func (j *HashJoinScan) assembleRight(b *chunkio.Builder, jd *joined, rightOut []outCol) error {
	nPairs := len(jd.right)
	if nPairs == 0 {
		return nil
	}
	dm := jd.survivors()
	// Rewritten in full by each column read in code space.
	byOrdIDs := make([]int32, jd.nBuild)
	var codes []int32
	for _, oc := range rightOut {
		inCode, err := jd.rightIDs(b, oc, dm, byOrdIDs)
		if err != nil {
			return err
		}
		if inCode {
			if codes == nil {
				codes = make([]int32, nPairs)
			}
			for pos, ord := range jd.right {
				codes[pos] = byOrdIDs[ord]
			}
			b.AppendCodes(oc.out, codes)
			continue
		}
		dst, err := jd.rightValues(oc.src, j.Sch.Cols[oc.out].Type, dm)
		if err != nil {
			return err
		}
		if err := b.AppendVector(oc.out, dst); err != nil {
			return err
		}
	}
	return nil
}

// keyIDs sets ids[p] to the shared key id of every row of key column
// cols[p] of a row group (keyColumnIDs), reusing ids[p]'s storage.
func keyIDs(cc *chunkCtx, cols []int, kds []*encoding.KeyDict, add bool, ids [][]int32) error {
	for p, col := range cols {
		out, err := keyColumnIDs(cc, col, kds[p], add, ids[p][:0])
		if err != nil {
			return err
		}
		ids[p] = out
	}
	return nil
}

// keyColumnIDs appends to out the shared key id of every row of one key
// column of a row group, reading the column in its cheapest typed form: a
// dictionary chunk looks each entry up once and gathers the ids by code,
// and other codecs decode the column and look it up as a typed vector. add
// interns (the build side); otherwise a key the build side never saw is -1.
func keyColumnIDs(cc *chunkCtx, col int, kd *encoding.KeyDict, add bool, out []int32) ([]int32, error) {
	dv, err := cc.dict(col)
	if err != nil {
		return nil, err
	}
	if dv == nil {
		vec, err := cc.vector(col)
		if err != nil {
			return nil, err
		}
		return kd.IDs(vec, add, out), nil
	}
	entries := kd.IDs(&dv.Vector, add, nil)
	codes, _ := dv.Codes()
	for _, c := range codes {
		out = append(out, entries[c])
	}
	return out, nil
}
