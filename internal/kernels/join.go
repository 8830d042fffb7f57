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

// HashJoinScan is a kernel-side inner equi-join over chunked inputs. Both
// sides resolve in chunked form — scans through the compressed resolver,
// inner joins by running them in chunked-output mode — and only their key
// columns are read to join: each key value is interned into a shared
// encoding.KeyDict (one per key position), so the build table is keyed by
// dense shared ids rather than values:
//
//   - the build (right) side hashes its selected rows by shared key id;
//   - the probe (left) side looks each key up without interning: a key the
//     build side never saw yields -1 and its row drops before any other
//     column decodes;
//   - only the surviving (leftRow, rightRow) pairs late-materialize, in the
//     row engine's exact output order (probe order, then build order).
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
	jd, err := j.join(ctx)
	if err != nil {
		return nil, err
	}
	if jd == nil {
		return j.Orig.Run(ctx)
	}
	// Late-materialize only the surviving pairs, scattering every output
	// column into its final position.
	out := table.New(j.Sch)
	for c, col := range j.Sch.Cols {
		out.Cols[c] = sizedVector(col.Type, len(jd.right))
	}
	leftOut, rightOut := j.outLayout()
	for _, oc := range leftOut {
		if err := j.gatherLeft(out.Cols[oc.out], jd, oc.src); err != nil {
			return nil, j.wrap(err)
		}
	}
	byGroup := bucketByGroup(jd.right, jd.groups)
	for _, oc := range rightOut {
		if err := j.gatherRight(out.Cols[oc.out], jd, byGroup, oc.src); err != nil {
			return nil, j.wrap(err)
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
	// source columns as remapped codes, everything else as late-materialized
	// values — in the row engine's exact output order (probe order, then
	// build order).
	b := j.Env.builderFor(j.Sch, j.ID)
	leftOut, rightOut := j.outLayout()
	for _, oc := range leftOut {
		if err := j.assembleLeft(b, jd, oc); err != nil {
			return nil, nil, j.wrap(err)
		}
	}
	if err := j.assembleRight(b, jd, rightOut); err != nil {
		return nil, nil, j.wrap(err)
	}
	jd.finish()
	ct, err := b.Finish()
	if err != nil {
		return nil, nil, j.wrap(err)
	}
	addBuilder(j.St, b.Counters)
	return ct, nil, nil
}

func (j *HashJoinScan) wrap(err error) error {
	return fmt.Errorf("kernels: join %s⋈%s: %w", j.Left.label(), j.Right.label(), err)
}

// joined is what both output forms assemble from: the build table, the
// surviving (left row, build row) pairs in output order, and the row-group
// contexts of both sides, kept — with whatever they parsed or decoded —
// until the survivors have been read.
type joined struct {
	kds    []*encoding.KeyDict // shared key space, one per key position
	table  map[string][]int    // composite of shared key ids → build-row ordinals
	groups []*joinGroup        // build-side groups with selected rows
	left   []int64             // left (group << 32 | local row) per output row
	right  []int               // build-row ordinal per output row

	leftCCs, rightCCs []*chunkCtx
}

// finish settles the counters of every row group either side touched.
func (jd *joined) finish() {
	for _, cc := range jd.leftCCs {
		cc.finish()
	}
	for _, cc := range jd.rightCCs {
		cc.finish()
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
		table:    make(map[string][]int),
		leftCCs:  make([]*chunkCtx, len(lgroups)),
		rightCCs: make([]*chunkCtx, len(rgroups)),
	}
	for _, rc := range j.RightKeys {
		jd.kds = append(jd.kds, encoding.NewKeyDict(j.Right.Schema().Cols[rc].Type))
	}
	if err := j.buildPhase(jd, rct, rgroups); err != nil {
		return nil, j.wrap(err)
	}
	if err := j.probePhase(ctx, jd, lct, lgroups); err != nil {
		return nil, j.wrap(err)
	}
	return jd, nil
}

// buildPhase hashes every selected build-side row by its composite of
// shared key ids, on the caller's token alone: the hash table and the key
// dictionaries are single-writer state.
func (j *HashJoinScan) buildPhase(jd *joined, rct *encoding.Compressed, rgroups []int) error {
	total := 0
	scratch := make([]byte, 8*len(j.RightKeys))
	_, err := walkGroups(walk{ct: rct, groups: rgroups, pred: j.Right.Pred, st: j.St, keep: jd.rightCCs},
		func() *joined { return jd }, // one partition, building jd itself
		func(jd *joined, cc *chunkCtx, sel *bitmap) error {
			ids, err := keyReaders(cc, j.RightKeys, jd.kds, true)
			if err != nil {
				return err
			}
			jg := &joinGroup{cc: cc, base: total}
			if sel != nil {
				jg.sel = make([]int32, 0, sel.count())
			}
			for i := 0; i < cc.rows; i++ {
				if sel != nil && !sel.get(i) {
					continue
				}
				for p := range ids {
					binary.LittleEndian.PutUint64(scratch[8*p:], uint64(ids[p](i)))
				}
				jd.table[string(scratch)] = append(jd.table[string(scratch)], total)
				if sel != nil {
					jg.sel = append(jg.sel, int32(i))
				}
				total++
			}
			jg.n = total - jg.base
			jd.groups = append(jd.groups, jg)
			return nil
		})
	j.St.JoinBuildRows += int64(total)
	return err
}

// probePhase translates each left chunk's codes against the build-side keys
// and records the surviving pairs, touching only key columns. The build
// table and shared key dictionaries are read-only by now, so the probe
// partitions across borrowed tokens; the pair lists concatenate in
// partition order, which is the serial probe order.
func (j *HashJoinScan) probePhase(ctx *engine.Context, jd *joined, lct *encoding.Compressed, lgroups []int) error {
	type pairs struct {
		left    []int64
		right   []int
		scratch []byte
	}
	parts, err := walkGroups(walk{ctx: ctx, ct: lct, groups: lgroups, pred: j.Left.Pred, st: j.St, keep: jd.leftCCs},
		func() *pairs { return &pairs{scratch: make([]byte, 8*len(j.LeftKeys))} },
		func(p *pairs, cc *chunkCtx, sel *bitmap) error {
			ids, err := keyReaders(cc, j.LeftKeys, jd.kds, false)
			if err != nil {
				return err
			}
		rowLoop:
			for i := 0; i < cc.rows; i++ {
				if sel != nil && !sel.get(i) {
					continue
				}
				cc.st.JoinProbeRows++
				for k := range ids {
					id := ids[k](i)
					if id < 0 {
						continue rowLoop // key exists only on the probe side
					}
					binary.LittleEndian.PutUint64(p.scratch[8*k:], uint64(id))
				}
				for _, r := range jd.table[string(p.scratch)] {
					p.left = append(p.left, int64(cc.group)<<32|int64(i))
					p.right = append(p.right, r)
				}
			}
			return nil
		})
	if err != nil {
		return err
	}
	jd.left, jd.right = parts[0].left, parts[0].right
	for _, p := range parts[1:] {
		jd.left = append(jd.left, p.left...)
		jd.right = append(jd.right, p.right...)
	}
	return nil
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

// sizedVector returns a vector of n zero values for scattered writes.
func sizedVector(t table.Type, n int) *table.Vector {
	v := &table.Vector{Type: t}
	switch t {
	case table.Int:
		v.Ints = make([]int64, n)
	case table.Float:
		v.Floats = make([]float64, n)
	default:
		v.Strs = make([]string, n)
	}
	return v
}

// gatherLeft scatters one probe-side column of the surviving pairs into
// dst. Pairs are in probe order — contiguous per group with non-decreasing
// local rows — so each group's chunk is read once and RLE cursors never
// rewind.
func (j *HashJoinScan) gatherLeft(dst *table.Vector, jd *joined, src int) error {
	curG := -1
	var read func(int) table.Value
	var counted bool
	for pos, p := range jd.left {
		g, i := int(p>>32), int(p&0xffffffff)
		if g != curG {
			curG = g
			var err error
			if read, counted, err = jd.leftCCs[g].reader(src); err != nil {
				return err
			}
		}
		setValue(j.St, dst, pos, read(i), counted)
	}
	return nil
}

// gatherRight scatters one build-side column of the surviving pairs into
// dst. Output positions come bucketed per right row group in local-row
// order (bucketByGroup), so each group's chunk is read once, monotonically,
// decoding only what the survivors demand.
func (j *HashJoinScan) gatherRight(dst *table.Vector, jd *joined, byGroup [][]int, src int) error {
	for g, positions := range byGroup {
		if len(positions) == 0 {
			continue
		}
		jg := jd.groups[g]
		read, counted, err := jg.cc.reader(src)
		if err != nil {
			return err
		}
		for _, pos := range positions {
			setValue(j.St, dst, pos, read(jg.localRow(jd.right[pos])), counted)
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

// assembleLeft streams one probe-side output column into the builder. Pairs
// are in probe order — contiguous per group with non-decreasing local rows
// — so each group's chunk is remapped (or its reader advanced) once.
func (j *HashJoinScan) assembleLeft(b *chunkio.Builder, jd *joined, oc outCol) error {
	curG := -1
	var codes []uint64
	var ids []int32
	var read func(int) table.Value
	var counted bool
	for _, p := range jd.left {
		g, i := int(p>>32), int(p&0xffffffff)
		if g != curG {
			curG = g
			cc := jd.leftCCs[g]
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
func (j *HashJoinScan) assembleRight(b *chunkio.Builder, jd *joined, rightOut []outCol) error {
	nPairs := len(jd.right)
	if nPairs == 0 {
		return nil
	}
	byGroup := bucketByGroup(jd.right, jd.groups)
	for _, oc := range rightOut {
		codes := make([]int32, nPairs)
		inCode := true
		for g, positions := range byGroup {
			if len(positions) == 0 {
				continue
			}
			jg := jd.groups[g]
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
				codes[pos] = ids[cods[jg.localRow(jd.right[pos])]]
			}
		}
		if inCode {
			for _, id := range codes {
				b.AppendCode(oc.out, id)
			}
			continue
		}
		dst := sizedVector(j.Sch.Cols[oc.out].Type, nPairs)
		if err := j.gatherRight(dst, jd, byGroup, oc.src); err != nil {
			return err
		}
		if err := b.AppendVector(oc.out, dst, nil); err != nil {
			return err
		}
	}
	return nil
}

// keyReaders returns keyReader for each key column of a row group.
func keyReaders(cc *chunkCtx, cols []int, kds []*encoding.KeyDict, add bool) ([]func(int) int, error) {
	ids := make([]func(int) int, len(cols))
	for p, col := range cols {
		fn, err := keyReader(cc, col, kds[p], add)
		if err != nil {
			return nil, err
		}
		ids[p] = fn
	}
	return ids, nil
}

// keyReader returns a per-row shared-key-id lookup for one key column of a
// row group: the key column is read through the chunk's cheapest accessor
// (dictionary lookups, run cursors; other codecs decode just this column)
// and each value is interned into kd — add selects build-side interning
// versus probe-side lookup, where a key the build side never saw yields -1.
func keyReader(cc *chunkCtx, col int, kd *encoding.KeyDict, add bool) (func(i int) int, error) {
	fn, err := cc.accessor(col)
	if err != nil {
		return nil, err
	}
	if add {
		return func(i int) int { return kd.Add(fn(i)) }, nil
	}
	return func(i int) int { return kd.Lookup(fn(i)) }, nil
}
