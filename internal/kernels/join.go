package kernels

import (
	"encoding/binary"
	"fmt"

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
// once per entry, an RLE chunk once per run, any other codec as one decoded
// vector — so the build table is keyed by dense shared ids, not values:
//
//   - the build (right) side keys its selected rows by shared key id (by a
//     dense composite id on a multi-key join) and lays them out by key with
//     one counting pass, an array indexed by id rather than a hash map;
//   - the probe (left) side looks its keys up without interning: a key the
//     build side never saw yields -1 and its row drops before any other
//     column decodes;
//   - only the surviving (leftRow, rightRow) pairs late-materialize, in the
//     row engine's exact output order (probe order, then build order): per
//     probe-group segment and per build group (bucketed by one counting pass
//     over build ordinals), each output column is gathered from its chunk
//     as a typed slice — a decoded vector by index, dictionary entries by
//     code, runs by cursor — or passed on as remapped codes.
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
// table: dictionary-encoded output columns travel as remapped codes, so a
// two-level join tree composes in code space end to end, and every other
// column reaches the chunkio.Builder as whole typed vectors
// (Builder.AppendVector). Run scatters the same typed gathers into a table.
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
	Env  *Env // chunked-output environment (nil: default codec policy)
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
		if ct, err = encoding.FromTable(t, j.Env.opts()); err != nil {
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
	// ones gather per build group and scatter into place.
	out := table.New(j.Sch)
	nPairs := len(jd.right)
	leftOut, rightOut := j.outLayout()
	for _, oc := range leftOut {
		dst := newVector(j.Sch.Cols[oc.out].Type, 0, nPairs)
		if err := jd.gatherLeft(dst, oc.src); err != nil {
			return nil, j.wrap(err)
		}
		out.Cols[oc.out] = dst
	}
	if len(rightOut) > 0 {
		bk := bucketByGroup(jd.right, jd.groups, len(jd.rows))
		for _, oc := range rightOut {
			dst := newVector(j.Sch.Cols[oc.out].Type, nPairs, nPairs)
			if err := jd.gatherRight(dst, bk, oc.src); err != nil {
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
	b := chunkio.NewBuilder(j.Sch, j.Env.opts())
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
	// ordinals of key k are rows[start[k]:start[k+1]], ascending.
	start, rows []int32
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
// ascending — the row engine's build order.
func (jd *joined) index(keys []int32) {
	nk := len(jd.composite)
	if jd.composite == nil {
		nk = jd.kds[0].Len()
	}
	jd.start = make([]int32, nk+1)
	for _, k := range keys {
		jd.start[k+1]++
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
// columns.
func (j *HashJoinScan) probePhase(jd *joined, lct *encoding.Compressed, lgroups []int) error {
	ids := make([][]int32, len(j.LeftKeys))
	scratch := make([]byte, 4*len(j.LeftKeys))
	return walkGroups(walk{ct: lct, groups: lgroups, pred: j.Left.Pred, st: j.St, keep: jd.leftCCs},
		func(cc *chunkCtx, sel *bitmap) error {
			if err := keyIDs(cc, j.LeftKeys, jd.kds, false, ids); err != nil {
				return err
			}
			probed := 0
			for i := 0; i < cc.rows; i++ {
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
			cc.st.JoinProbeRows += int64(probed)
			if prev := segEnd(jd.segs); len(jd.leftRows) > prev {
				jd.segs = append(jd.segs, leftSeg{group: cc.group, end: len(jd.leftRows)})
			}
			return nil
		})
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

// buckets are the surviving pairs' output positions bucketed by build
// group: order lists them sorted by build ordinal (stably), group g's are
// order[bounds[g]:bounds[g+1]], and local[k] is the group-local row of
// order[k]. Ordinals are dense per group and local rows monotone in them,
// so local rows ascend within each group.
type buckets struct {
	order, local []int32
	bounds       []int
}

// bucketByGroup buckets the output positions with one counting pass over
// their build ordinals (total of them): nothing is sorted.
func bucketByGroup(right []int32, groups []*joinGroup, total int) *buckets {
	next := make([]int32, total+1)
	for _, ord := range right {
		next[ord+1]++
	}
	for o := 1; o <= total; o++ {
		next[o] += next[o-1]
	}
	bk := &buckets{
		order:  make([]int32, len(right)),
		local:  make([]int32, len(right)),
		bounds: make([]int, len(groups)+1),
	}
	for g, jg := range groups {
		bk.bounds[g+1] = int(next[jg.base+jg.n])
	}
	for pos, ord := range right {
		bk.order[next[ord]] = int32(pos)
		next[ord]++
	}
	for g, jg := range groups {
		for k := bk.bounds[g]; k < bk.bounds[g+1]; k++ {
			bk.local[k] = int32(jg.localRow(int(right[bk.order[k]])))
		}
	}
	return bk
}

// gatherRight scatters one build-side column of the surviving pairs into
// dst, pre-sized to the output. Each build group with survivors gathers its
// values once, in ascending local-row order and decoding only what the
// survivors demand, then scatters them to their output positions.
func (jd *joined) gatherRight(dst *table.Vector, bk *buckets, src int) error {
	buf := &table.Vector{Type: dst.Type}
	for g, jg := range jd.groups {
		lo, hi := bk.bounds[g], bk.bounds[g+1]
		if lo == hi {
			continue
		}
		resetVector(buf)
		if err := jg.cc.gather(src, bk.local[lo:hi], buf); err != nil {
			return err
		}
		scatter(dst, bk.order[lo:hi], buf)
	}
	return nil
}

// assembleLeft appends one probe-side output column to the builder, one
// probe group's segment at a time: as remapped codes when the group's chunk
// is dictionary-encoded and the column takes codes, else as a typed column
// of the gathered values.
func (j *HashJoinScan) assembleLeft(b *chunkio.Builder, jd *joined, oc outCol) error {
	buf := &table.Vector{Type: j.Sch.Cols[oc.out].Type}
	lo := 0
	for _, s := range jd.segs {
		rows := jd.leftRows[lo:s.end]
		lo = s.end
		cc := jd.leftCCs[s.group]
		cs, err := cc.parse(oc.src)
		if err != nil {
			return err
		}
		if cs.dict != nil && cs.vec == nil {
			if ids, ok := b.Remap(oc.out, cs.dict); ok {
				codes, _ := cs.dict.Codes()
				for _, i := range rows {
					b.AppendCode(oc.out, ids[codes[i]])
				}
				continue
			}
		}
		resetVector(buf)
		if err := cc.gather(oc.src, rows, buf); err != nil {
			return err
		}
		if err := b.AppendVector(oc.out, buf); err != nil {
			return err
		}
	}
	return nil
}

// assembleRight appends the build-side output columns to the builder in
// output order. A column whose every contributing chunk is dictionary-
// encoded travels as remapped codes; otherwise its values gather into a
// pre-sized vector exactly like the materializing path, appended in bulk.
func (j *HashJoinScan) assembleRight(b *chunkio.Builder, jd *joined, rightOut []outCol) error {
	nPairs := len(jd.right)
	if nPairs == 0 {
		return nil
	}
	bk := bucketByGroup(jd.right, jd.groups, len(jd.rows))
	codes := make([]int32, nPairs) // rewritten in full by each column read in code space
	for _, oc := range rightOut {
		inCode := true
		for g, jg := range jd.groups {
			lo, hi := bk.bounds[g], bk.bounds[g+1]
			if lo == hi {
				continue
			}
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
			cods, _ := cs.dict.Codes()
			for k, pos := range bk.order[lo:hi] {
				codes[pos] = ids[cods[bk.local[lo+k]]]
			}
		}
		if inCode {
			for _, id := range codes {
				b.AppendCode(oc.out, id)
			}
			continue
		}
		dst := newVector(j.Sch.Cols[oc.out].Type, nPairs, nPairs)
		if err := jd.gatherRight(dst, bk, oc.src); err != nil {
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
// dictionary chunk looks each entry up once and gathers the ids by code, an
// RLE chunk looks each run up once, and other codecs decode the column and
// look it up as a typed vector. add interns (the build side); otherwise a
// key the build side never saw is -1.
func keyColumnIDs(cc *chunkCtx, col int, kd *encoding.KeyDict, add bool, out []int32) ([]int32, error) {
	cs, err := cc.parse(col)
	if err != nil {
		return nil, err
	}
	switch {
	case cs.vec != nil:
		return kd.IDs(cs.vec, add, out), nil
	case cs.dict != nil:
		dv := cs.dict
		entries := kd.IDs(&table.Vector{Type: dv.Type, Ints: dv.Ints, Strs: dv.Strs}, add, nil)
		codes, _ := dv.Codes()
		for _, c := range codes {
			out = append(out, entries[c])
		}
		return out, nil
	case cs.runs != nil:
		vals := &table.Vector{Type: cc.colType(col)}
		for _, r := range cs.runs {
			_ = vals.Append(r.Val)
		}
		for k, id := range kd.IDs(vals, add, nil) {
			for n := 0; n < cs.runs[k].Len; n++ {
				out = append(out, id)
			}
		}
		return out, nil
	default:
		vec, err := cc.vector(col)
		if err != nil {
			return nil, err
		}
		return kd.IDs(vec, add, out), nil
	}
}
