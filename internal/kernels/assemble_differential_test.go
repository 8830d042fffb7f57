package kernels

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/shortcircuit-db/sc/internal/chunkio"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// This file checks the join kernel's columnar paths — typed key probe (a
// branch-free one on a unique single key), build-side columns gathered by
// build ordinal, typed gathers and bulk appends — against a
// copy of the value-at-a-time join they replaced (perValue*): a map keyed
// by the bytes of the shared key ids, per-row accessor closures, a sorted
// bucketing and one Builder append per value. Both must produce the same
// chunks byte for byte, the same RawBytes, the same chunkio.Counters and
// the same kernel Stats, for every codec, selection and group layout.

// perValueJoined is the value-at-a-time join's build table and pairs.
type perValueJoined struct {
	kds    []*encoding.KeyDict
	table  map[string][]int
	groups []*joinGroup
	left   []int64 // left (group << 32 | local row) per output row
	right  []int

	leftCCs, rightCCs []*chunkCtx
}

// localRow maps a selected-row ordinal back to the group-local row index.
func (g *joinGroup) localRow(ord int) int {
	if g.sel == nil {
		return ord - g.base
	}
	return int(g.sel[ord-g.base])
}

func (jd *perValueJoined) finish() {
	for _, cc := range jd.leftCCs {
		cc.finish()
	}
	for _, cc := range jd.rightCCs {
		cc.finish()
	}
}

// perValueReader is the accessor plus whether its values were counted at
// decode time.
func perValueReader(cc *chunkCtx, col int) (func(int) table.Value, bool, error) {
	fn, err := cc.accessor(col)
	if err != nil {
		return nil, false, err
	}
	return fn, cc.cols[col].vec != nil, nil
}

func perValueCount(st *Stats, v table.Value) {
	if v.Type == table.Str {
		st.DecodedBytes += int64(len(v.S)) + 16
	} else {
		st.DecodedBytes += 8
	}
}

// perValueAppend appends one value to the builder on its own.
func perValueAppend(b *chunkio.Builder, ci int, v table.Value) error {
	vec := &table.Vector{Type: v.Type}
	_ = vec.Append(v)
	return b.AppendVector(ci, vec)
}

func perValueJoin(j *HashJoinScan, ctx *engine.Context) (*perValueJoined, error) {
	lct, rct, lgroups, rgroups, ok, err := j.resolveSides(ctx)
	if err != nil || !ok {
		return nil, fmt.Errorf("sides did not resolve: ok=%v err=%v", ok, err)
	}
	jd := &perValueJoined{
		table:    make(map[string][]int),
		leftCCs:  make([]*chunkCtx, len(lgroups)),
		rightCCs: make([]*chunkCtx, len(rgroups)),
	}
	for _, rc := range j.RightKeys {
		jd.kds = append(jd.kds, encoding.NewKeyDict(j.Right.Schema().Cols[rc].Type))
	}
	readers := func(cc *chunkCtx, cols []int, add bool) ([]func(int) int, error) {
		ids := make([]func(int) int, len(cols))
		for p, col := range cols {
			fn, err := cc.accessor(col)
			if err != nil {
				return nil, err
			}
			kd, typ := jd.kds[p], cc.colType(col)
			ids[p] = func(i int) int {
				vec := &table.Vector{Type: typ}
				_ = vec.Append(fn(i))
				return int(kd.IDs(vec, add, nil)[0])
			}
		}
		return ids, nil
	}
	total := 0
	scratch := make([]byte, 8*len(j.RightKeys))
	err = walkGroups(walk{ct: rct, groups: rgroups, pred: j.Right.Pred, st: j.St, keep: jd.rightCCs},
		func(cc *chunkCtx, sel *bitmap) error {
			ids, err := readers(cc, j.RightKeys, true)
			if err != nil {
				return err
			}
			jg := &joinGroup{cc: cc, base: total}
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
	if err != nil {
		return nil, err
	}
	pscratch := make([]byte, 8*len(j.LeftKeys))
	err = walkGroups(walk{ct: lct, groups: lgroups, pred: j.Left.Pred, st: j.St, keep: jd.leftCCs},
		func(cc *chunkCtx, sel *bitmap) error {
			ids, err := readers(cc, j.LeftKeys, false)
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
						continue rowLoop
					}
					binary.LittleEndian.PutUint64(pscratch[8*k:], uint64(id))
				}
				for _, r := range jd.table[string(pscratch)] {
					jd.left = append(jd.left, int64(cc.group)<<32|int64(i))
					jd.right = append(jd.right, r)
				}
			}
			return nil
		})
	return jd, err
}

func perValueBuckets(rightIdx []int, groups []*joinGroup) [][]int {
	byGroup := make([][]int, len(groups))
	for pos, ord := range rightIdx {
		g := sort.Search(len(groups), func(k int) bool {
			return groups[k].base+groups[k].n > ord
		})
		byGroup[g] = append(byGroup[g], pos)
	}
	for g, positions := range byGroup {
		jg := groups[g]
		sort.Slice(positions, func(a, b int) bool {
			return jg.localRow(rightIdx[positions[a]]) < jg.localRow(rightIdx[positions[b]])
		})
	}
	return byGroup
}

// perValueGatherRight reads one build-side column of the pairs value by
// value; set receives each output position and value.
func perValueGatherRight(st *Stats, jd *perValueJoined, byGroup [][]int, src int, set func(pos int, v table.Value)) error {
	for g, positions := range byGroup {
		if len(positions) == 0 {
			continue
		}
		jg := jd.groups[g]
		read, counted, err := perValueReader(jg.cc, src)
		if err != nil {
			return err
		}
		for _, pos := range positions {
			v := read(jg.localRow(jd.right[pos]))
			if !counted {
				perValueCount(st, v)
			}
			set(pos, v)
		}
	}
	return nil
}

// perValueRun is the value-at-a-time join's materializing output.
func perValueRun(j *HashJoinScan, ctx *engine.Context) (*table.Table, error) {
	jd, err := perValueJoin(j, ctx)
	if err != nil {
		return nil, err
	}
	out := table.New(j.Sch)
	for c, col := range j.Sch.Cols {
		out.Cols[c] = table.MakeVector(col.Type, len(jd.right), len(jd.right))
	}
	set := func(dst *table.Vector) func(int, table.Value) {
		return func(pos int, v table.Value) {
			switch dst.Type {
			case table.Int:
				dst.Ints[pos] = v.I
			case table.Float:
				dst.Floats[pos] = v.F
			default:
				dst.Strs[pos] = v.S
			}
		}
	}
	leftOut, rightOut := j.outLayout()
	for _, oc := range leftOut {
		curG := -1
		var read func(int) table.Value
		var counted bool
		for pos, p := range jd.left {
			g, i := int(p>>32), int(p&0xffffffff)
			if g != curG {
				curG = g
				if read, counted, err = perValueReader(jd.leftCCs[g], oc.src); err != nil {
					return nil, err
				}
			}
			v := read(i)
			if !counted {
				perValueCount(j.St, v)
			}
			set(out.Cols[oc.out])(pos, v)
		}
	}
	byGroup := perValueBuckets(jd.right, jd.groups)
	for _, oc := range rightOut {
		if err := perValueGatherRight(j.St, jd, byGroup, oc.src, set(out.Cols[oc.out])); err != nil {
			return nil, err
		}
	}
	jd.finish()
	return out, nil
}

// perValueAssemble is the value-at-a-time join's chunked output.
func perValueAssemble(j *HashJoinScan, ctx *engine.Context, b *chunkio.Builder) (*encoding.Compressed, error) {
	jd, err := perValueJoin(j, ctx)
	if err != nil {
		return nil, err
	}
	leftOut, rightOut := j.outLayout()
	for _, oc := range leftOut {
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
				dv, err := cc.dict(oc.src)
				if err != nil {
					return nil, err
				}
				if dv != nil {
					if rIds, ok := b.Remap(oc.out, dv); ok {
						codes, _ = dv.Codes()
						ids = rIds
					}
				}
				if codes == nil {
					if read, counted, err = perValueReader(cc, oc.src); err != nil {
						return nil, err
					}
				}
			}
			if codes != nil {
				b.AppendCodes(oc.out, []int32{ids[codes[i]]})
				continue
			}
			v := read(i)
			if !counted {
				perValueCount(j.St, v)
			}
			if err := perValueAppend(b, oc.out, v); err != nil {
				return nil, err
			}
		}
	}
	if n := len(jd.right); n > 0 {
		byGroup := perValueBuckets(jd.right, jd.groups)
		for _, oc := range rightOut {
			codes := make([]int32, n)
			inCode := true
			for g, positions := range byGroup {
				if len(positions) == 0 {
					continue
				}
				jg := jd.groups[g]
				dv, err := jg.cc.dict(oc.src)
				if err != nil {
					return nil, err
				}
				if dv == nil {
					inCode = false
					break
				}
				ids, ok := b.Remap(oc.out, dv)
				if !ok {
					inCode = false
					break
				}
				cods, _ := dv.Codes()
				for _, pos := range positions {
					codes[pos] = ids[cods[jg.localRow(jd.right[pos])]]
				}
			}
			if inCode {
				for _, id := range codes {
					b.AppendCodes(oc.out, []int32{id})
				}
				continue
			}
			vals := make([]table.Value, n)
			if err := perValueGatherRight(j.St, jd, byGroup, oc.src, func(pos int, v table.Value) { vals[pos] = v }); err != nil {
				return nil, err
			}
			for _, v := range vals {
				if err := perValueAppend(b, oc.out, v); err != nil {
					return nil, err
				}
			}
		}
	}
	jd.finish()
	return b.Finish()
}

// assemblyCase is one randomized join: both tables, their chunk layouts,
// the output codec policy and the plan over them.
type assemblyCase struct {
	left, right  *table.Table
	lOpts, rOpts encChoice
	outOpts      encoding.Options
	build        func() engine.Node
}

// genAssemblyCase draws tables whose key and payload columns cover every
// codec (dictionary INT/STRING, RLE, delta, raw, floatdec), one or two keys,
// many-group layouts on both sides, and a plan that is a bare join, a join
// under a one-sided filter that lowers to a side predicate, or a join under
// a fused columns-only projection.
func genAssemblyCase(rng *rand.Rand) assemblyCase {
	var c assemblyCase
	nLeft, nRight := rowCount(rng), rowCount(rng)
	c.left, c.right = genTable(rng, nLeft), genTable(rng, nRight)
	var lKeys, rKeys []int
	for k, nKeys := 0, 1+rng.Intn(2); k < nKeys; k++ {
		typ := table.Int
		if rng.Intn(2) == 0 {
			typ = table.Str
		}
		c.left.Schema.Cols = append(c.left.Schema.Cols, table.Column{Name: fmt.Sprintf("lk%d", k), Type: typ})
		c.left.Cols = append(c.left.Cols, genVector(rng, typ, keyShapes[rng.Intn(len(keyShapes))], nLeft))
		c.right.Schema.Cols = append(c.right.Schema.Cols, table.Column{Name: fmt.Sprintf("rk%d", k), Type: typ})
		c.right.Cols = append(c.right.Cols, genVector(rng, typ, keyShapes[rng.Intn(len(keyShapes))], nRight))
		lKeys = append(lKeys, len(c.left.Cols)-1)
		rKeys = append(rKeys, len(c.right.Cols)-1)
	}
	c.lOpts, c.rOpts = encOptions(rng), encOptions(rng)
	c.outOpts = encoding.Options{ChunkRows: []int{0, 1 + rng.Intn(9), 64}[rng.Intn(3)]}

	joined := &table.Table{}
	joined.Schema.Cols = append(append(joined.Schema.Cols, c.left.Schema.Cols...), c.right.Schema.Cols...)
	joined.Cols = append(append(joined.Cols, c.left.Cols...), c.right.Cols...)
	predSeed, shape := rng.Int63(), rng.Intn(3)
	var exprs []engine.Expr
	var names []string
	for k, nOut := 0, 1+rng.Intn(len(joined.Cols)); k < nOut; k++ {
		exprs = append(exprs, &engine.ColRef{Idx: rng.Intn(len(joined.Cols))})
		names = append(names, fmt.Sprintf("o%d", k))
	}
	c.build = func() engine.Node {
		var n engine.Node = &engine.HashJoin{
			Left:      &engine.Scan{Name: "L", Sch: c.left.Schema},
			Right:     &engine.Scan{Name: "R", Sch: c.right.Schema},
			LeftKeys:  lKeys,
			RightKeys: rKeys,
		}
		switch shape {
		case 1:
			prng := rand.New(rand.NewSource(predSeed))
			col := prng.Intn(len(joined.Cols))
			ops := []engine.BinOp{engine.OpEq, engine.OpNe, engine.OpLt, engine.OpLe, engine.OpGt, engine.OpGe}
			n = &engine.Filter{Input: n, Pred: &engine.Bin{Op: ops[prng.Intn(len(ops))],
				L: &engine.ColRef{Idx: col}, R: litFor(prng, joined, col)}}
		case 2:
			p, err := engine.NewProject(n, exprs, names)
			if err != nil {
				panic(err)
			}
			n = p
		}
		return n
	}
	return c
}

// lowerJoin lowers the case's plan with its own Stats and output
// environment; ok is false when the root is not a join kernel.
func (c assemblyCase) lowerJoin() (*HashJoinScan, bool) {
	j, ok := LowerEnv(c.build(), &Stats{}, c.outOpts).(*HashJoinScan)
	return j, ok
}

// mustEqualChunks compares two compressed outputs chunk for chunk.
func mustEqualChunks(t *testing.T, desc string, want, got *encoding.Compressed) {
	t.Helper()
	if want.NRows != got.NRows || want.RawBytes != got.RawBytes || !want.Schema.Equal(got.Schema) || len(want.Cols) != len(got.Cols) {
		t.Fatalf("%s: per-value %d rows %d raw B, columnar %d rows %d raw B", desc, want.NRows, want.RawBytes, got.NRows, got.RawBytes)
	}
	for c := range want.Cols {
		if len(want.Cols[c]) != len(got.Cols[c]) {
			t.Fatalf("%s: column %d has %d chunks per value, %d columnar", desc, c, len(want.Cols[c]), len(got.Cols[c]))
		}
		for k, w := range want.Cols[c] {
			g := got.Cols[c][k]
			if w.Codec != g.Codec || w.Rows != g.Rows || !bytes.Equal(w.Data, g.Data) {
				t.Fatalf("%s: column %d chunk %d differs: per-value %s/%d rows, columnar %s/%d rows",
					desc, c, k, w.Codec, w.Rows, g.Codec, g.Rows)
			}
		}
	}
}

// checkAssembly runs one case through both joins, in both output forms,
// and requires identical chunks, counters and Stats. It returns the
// columnar builder's counters and whether the case lowered onto the join
// kernel.
func checkAssembly(t *testing.T, desc string, c assemblyCase) (chunkio.Counters, bool) {
	t.Helper()
	_, vecCtx := joinCtxFor(t, map[string]*table.Table{"L": c.left, "R": c.right},
		map[string]encChoice{"L": c.lOpts, "R": c.rOpts})
	jn, ok := c.lowerJoin()
	if !ok {
		return chunkio.Counters{}, false
	}
	jo, _ := c.lowerJoin()

	jd, err := jn.join(vecCtx)
	if err != nil {
		t.Fatalf("%s: columnar join: %v", desc, err)
	}
	bn := chunkio.NewBuilder(jn.Sch, c.outOpts, len(jd.right))
	got, errN := jn.assemble(bn, jd)
	addBuilder(jn.St, bn.Counters)
	bo := chunkio.NewBuilder(jo.Sch, c.outOpts, 0)
	want, errO := perValueAssemble(jo, vecCtx, bo)
	addBuilder(jo.St, bo.Counters)
	if (errN != nil) != (errO != nil) {
		t.Fatalf("%s: per-value err %v, columnar err %v", desc, errO, errN)
	}
	if errN == nil {
		mustEqualChunks(t, desc, want, got)
	}
	if bn.Counters != bo.Counters {
		t.Fatalf("%s: builder counters per-value %+v, columnar %+v", desc, bo.Counters, bn.Counters)
	}
	if *jn.St != *jo.St {
		t.Fatalf("%s: chunked Stats per-value %+v, columnar %+v", desc, *jo.St, *jn.St)
	}

	*jn.St, *jo.St = Stats{}, Stats{}
	gotT, errN := jn.Run(vecCtx)
	wantT, errO := perValueRun(jo, vecCtx)
	mustEqual(t, 0, desc+" materialized", wantT, gotT, errO, errN)
	if *jn.St != *jo.St {
		t.Fatalf("%s: materialized Stats per-value %+v, columnar %+v", desc, *jo.St, *jn.St)
	}
	return bn.Counters, true
}

// TestJoinAssemblyMatchesPerValueLoop is the differential test of the join
// kernel's columnar paths against the value-at-a-time loop.
func TestJoinAssemblyMatchesPerValueLoop(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 80
	}
	lowered := 0
	for seed := 9000; seed < 9000+iters; seed++ {
		if _, ok := checkAssembly(t, fmt.Sprintf("seed %d", seed), genAssemblyCase(rand.New(rand.NewSource(int64(seed))))); ok {
			lowered++
		}
	}
	if lowered < iters/2 {
		t.Fatalf("only %d of %d cases lowered onto the join kernel", lowered, iters)
	}
}

// TestJoinAssemblyOverflowMidVector overflows the join's output
// dictionaries at their default cap, midway through each output column. On
// both sides the payload is a dictionary chunk per row group (each value
// twice per group, so dict wins) and the groups' entries together
// outnumber chunkio.DefaultMaxEntries; the 1:1 join keeps every row. The
// probe-side column must fall from remapped codes to values partway
// through (its pending codes materialize), the build-side column must
// gather values once Remap refuses, and both must still match the
// per-value loop and the row engine.
func TestJoinAssemblyOverflowMidVector(t *testing.T) {
	const chunkRows, perGroup = 2048, 1024
	n := chunkRows * (chunkio.DefaultMaxEntries/perGroup + 1)
	side := func(prefix string) *table.Table {
		tb := table.New(table.NewSchema(
			table.Column{Name: "k", Type: table.Int},
			table.Column{Name: "s", Type: table.Str},
		))
		for i := 0; i < n; i++ {
			tb.Cols[0].Ints = append(tb.Cols[0].Ints, int64(i))
			tb.Cols[1].Strs = append(tb.Cols[1].Strs, fmt.Sprintf("%s%06d", prefix, i/chunkRows*perGroup+i%perGroup))
		}
		return tb
	}
	left, right := side("l"), side("r")
	c := assemblyCase{
		left: left, right: right,
		lOpts: encChoice{opts: encoding.Options{ChunkRows: chunkRows}},
		rOpts: encChoice{opts: encoding.Options{ChunkRows: chunkRows}},
		build: func() engine.Node {
			return &engine.HashJoin{
				Left:      &engine.Scan{Name: "L", Sch: left.Schema},
				Right:     &engine.Scan{Name: "R", Sch: right.Schema},
				LeftKeys:  []int{0},
				RightKeys: []int{0},
			}
		},
	}
	cnt, ok := checkAssembly(t, "default cap", c)
	if !ok {
		t.Fatal("plan did not lower onto the join kernel")
	}
	// The key columns are not dictionary chunks, so any code chunk would be
	// a payload column that never overflowed.
	if cnt.CodeChunks != 0 || cnt.MaterializedBytes == 0 {
		t.Fatalf("counters = %+v: both payload columns should have overflowed to values", cnt)
	}
	rowCtx, vecCtx := joinCtxFor(t, map[string]*table.Table{"L": left, "R": right},
		map[string]encChoice{"L": c.lOpts, "R": c.rOpts})
	want, wantErr := c.build().Run(rowCtx)
	j, _ := c.lowerJoin()
	got, gotErr := decodeChunked(t, j, vecCtx)
	mustEqual(t, 0, "overflowed chunked output", want, got, wantErr, gotErr)
}

// FuzzJoinAssembly drives the same differential from fuzz-chosen seeds.
func FuzzJoinAssembly(f *testing.F) {
	for _, s := range []int64{1, 42, 9001, 123456} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkAssembly(t, fmt.Sprintf("seed %d", seed), genAssemblyCase(rand.New(rand.NewSource(seed))))
	})
}

// TestPerValueReferenceMatchesRowEngine keeps the reference honest: the
// per-value copy must itself match the row engine.
func TestPerValueReferenceMatchesRowEngine(t *testing.T) {
	for seed := 9500; seed < 9560; seed++ {
		c := genAssemblyCase(rand.New(rand.NewSource(int64(seed))))
		rowCtx, vecCtx := joinCtxFor(t, map[string]*table.Table{"L": c.left, "R": c.right},
			map[string]encChoice{"L": c.lOpts, "R": c.rOpts})
		j, ok := c.lowerJoin()
		if !ok {
			continue
		}
		want, wantErr := c.build().Run(rowCtx)
		got, gotErr := perValueRun(j, vecCtx)
		mustEqual(t, int64(seed), "per-value reference", want, got, wantErr, gotErr)
	}
}

// intTable builds a table of INT columns named cols, row i of column c
// being val(c, i).
func intTable(n int, val func(c, i int) int64, cols ...string) *table.Table {
	sch := table.Schema{}
	for _, name := range cols {
		sch.Cols = append(sch.Cols, table.Column{Name: name, Type: table.Int})
	}
	tb := table.New(sch)
	for c := range cols {
		for i := 0; i < n; i++ {
			tb.Cols[c].Ints = append(tb.Cols[c].Ints, val(c, i))
		}
	}
	return tb
}

// filteredJoinCase is Filter(HashJoin(L, R), pred) on one key per side, or
// the bare join when pred is nil; pred's column indexes are the joined
// table's (left columns first).
func filteredJoinCase(left, right *table.Table, lKey, rKey int, lOpts, rOpts encChoice, pred engine.Expr) assemblyCase {
	return assemblyCase{
		left: left, right: right, lOpts: lOpts, rOpts: rOpts,
		outOpts: encoding.Options{ChunkRows: 16},
		build: func() engine.Node {
			var n engine.Node = &engine.HashJoin{
				Left:      &engine.Scan{Name: "L", Sch: left.Schema},
				Right:     &engine.Scan{Name: "R", Sch: right.Schema},
				LeftKeys:  []int{lKey},
				RightKeys: []int{rKey},
			}
			if pred != nil {
				n = &engine.Filter{Input: n, Pred: pred}
			}
			return n
		},
	}
}

// joinedFor lowers c and runs its join phases, for tests that inspect the
// build table and the pairs.
func joinedFor(t *testing.T, c assemblyCase) (*HashJoinScan, *joined) {
	t.Helper()
	_, vecCtx := joinCtxFor(t, map[string]*table.Table{"L": c.left, "R": c.right},
		map[string]encChoice{"L": c.lOpts, "R": c.rOpts})
	j, ok := c.lowerJoin()
	if !ok {
		t.Fatal("plan did not lower onto the join kernel")
	}
	jd, err := j.join(vecCtx)
	if err != nil || jd == nil {
		t.Fatalf("join: %v (fell back: %v)", err, jd == nil)
	}
	return j, jd
}

// deadGroups counts the build groups no surviving pair reads.
func deadGroups(jd *joined) int {
	dead := 0
	for _, live := range jd.survivors().live {
		if !live {
			dead++
		}
	}
	return dead
}

// TestJoinAssemblyOrdinalGather: build-side columns laid out by build
// ordinal and gathered by each pair's ordinal match the per-value loop —
// chunks, builder counters and Stats, DecodedBytes included — on a build
// side of five row groups, one of which no pair reads, with a build-side
// predicate, non-unique build keys, and output columns in code space
// (dictionary STRING) and value space (delta INT, FLOAT), under every
// build-side chunk layout the kernels read (an older store's RLE chunks
// included).
func TestJoinAssemblyOrdinalGather(t *testing.T) {
	const perGroup, groups = 8, 5
	n := perGroup * groups
	right := table.New(table.NewSchema(
		table.Column{Name: "rk", Type: table.Int},
		table.Column{Name: "rs", Type: table.Str},
		table.Column{Name: "ri", Type: table.Int},
		table.Column{Name: "rf", Type: table.Float},
		table.Column{Name: "rflag", Type: table.Int},
	))
	for i := 0; i < n; i++ {
		key := int64(i / 2) // every key twice
		if i/perGroup == 2 {
			key = int64(1000 + i) // group 2's keys: no probe row has them
		}
		right.Cols[0].Ints = append(right.Cols[0].Ints, key)
		right.Cols[1].Strs = append(right.Cols[1].Strs, fmt.Sprintf("s%d", i%3))
		right.Cols[2].Ints = append(right.Cols[2].Ints, int64(3*i))
		right.Cols[3].Floats = append(right.Cols[3].Floats, float64(i)/4)
		right.Cols[4].Ints = append(right.Cols[4].Ints, int64(i%3))
	}
	left := intTable(64, func(c, i int) int64 { return []int64{int64(i % 20), int64(i)}[c] }, "lk", "lp")
	// rflag is joined column 2 + 4: the predicate drops every third build row.
	pred := &engine.Bin{Op: engine.OpNe, L: &engine.ColRef{Idx: 6}, R: &engine.Lit{V: table.IntValue(0)}}
	for _, rOpts := range []encChoice{
		{opts: encoding.Options{ChunkRows: perGroup}},
		{opts: encoding.Options{ChunkRows: perGroup}, rleEvery: 2},
	} {
		c := filteredJoinCase(left, right, 0, 0, encChoice{opts: encoding.Options{ChunkRows: 16}}, rOpts, pred)
		j, jd := joinedFor(t, c)
		if j.Right.Pred == nil || jd.unique || len(jd.groups) < 3 || deadGroups(jd) == 0 || len(jd.right) == 0 {
			t.Fatalf("rle %d: want a filtered, non-unique build side of ≥ 3 groups with a dead one and pairs; pred %v, unique %v, %d groups, %d dead, %d pairs",
				rOpts.rleEvery, j.Right.Pred != nil, jd.unique, len(jd.groups), deadGroups(jd), len(jd.right))
		}
		checkAssembly(t, fmt.Sprintf("ordinal gather, rle %d", rOpts.rleEvery), c)
	}
}

// TestJoinAssemblyOrdinalGatherOverflow: a build-side dictionary column
// whose output dictionary overflows partway through its build groups — 65
// groups with survivors of 1,024 distinct strings each against
// chunkio.DefaultMaxEntries, past non-unique keys, a build-side predicate
// and a group no pair reads — leaves code space for value space and still
// matches the per-value loop.
func TestJoinAssemblyOrdinalGatherOverflow(t *testing.T) {
	const chunkRows, perGroup, groups, dead = 2048, 1024, 66, 3
	n := chunkRows * groups
	right := table.New(table.NewSchema(
		table.Column{Name: "rk", Type: table.Int},
		table.Column{Name: "rs", Type: table.Str},
		table.Column{Name: "rflag", Type: table.Int},
	))
	for i := 0; i < n; i++ {
		right.Cols[0].Ints = append(right.Cols[0].Ints, int64(i/2))
		right.Cols[1].Strs = append(right.Cols[1].Strs, fmt.Sprintf("r%06d", i/chunkRows*perGroup+i%perGroup))
		right.Cols[2].Ints = append(right.Cols[2].Ints, int64(i%4))
	}
	// Probe keys cover every build key but those of group dead.
	left := intTable(n/2, func(c, i int) int64 {
		if c == 0 && i/(chunkRows/2) == dead {
			return -1 - int64(i)
		}
		return int64(i)
	}, "lk", "lp")
	pred := &engine.Bin{Op: engine.OpNe, L: &engine.ColRef{Idx: 4}, R: &engine.Lit{V: table.IntValue(0)}}
	opts := encChoice{opts: encoding.Options{ChunkRows: chunkRows}}
	c := filteredJoinCase(left, right, 0, 0, opts, opts, pred)
	j, jd := joinedFor(t, c)
	if j.Right.Pred == nil || jd.unique || deadGroups(jd) != 1 {
		t.Fatalf("want a filtered, non-unique build side with one dead group; pred %v, unique %v, %d dead",
			j.Right.Pred != nil, jd.unique, deadGroups(jd))
	}
	_, rightOut := j.outLayout()
	b := chunkio.NewBuilder(j.Sch, c.outOpts, len(jd.right))
	if inCode, err := jd.rightIDs(b, rightOut[1], jd.survivors(), make([]int32, jd.nBuild)); err != nil || inCode {
		t.Fatalf("build-side dictionary column stayed in code space (err %v)", err)
	}
	checkAssembly(t, "ordinal gather, overflow", c)
}

// TestJoinUniqueProbe: the branch-free probe against a unique single-key
// build side matches the per-value loop with probe keys the build side
// never saw (-1), keys it interned but whose rows its predicate dropped, a
// probe-side predicate that selects every row of one probe group, some of
// others and none of one, and an empty build side, for INT and STRING
// keys.
func TestJoinUniqueProbe(t *testing.T) {
	const perGroup = 16
	for _, typ := range []table.Type{table.Int, table.Str} {
		key := func(x int64) table.Value {
			if typ == table.Int {
				return table.IntValue(x)
			}
			return table.StrValue(fmt.Sprintf("k%d", x))
		}
		mk := func(n int, row func(i int) []table.Value, cols ...table.Column) *table.Table {
			tb := table.New(table.NewSchema(cols...))
			for i := 0; i < n; i++ {
				if err := tb.AppendRow(row(i)...); err != nil {
					t.Fatal(err)
				}
			}
			return tb
		}
		for _, nRight := range []int{40, 0} {
			// Build keys 0, 3, 6, …; rflag drops every fourth build row.
			right := mk(nRight, func(i int) []table.Value {
				return []table.Value{key(int64(3 * i)), table.IntValue(int64(i % 4)), table.StrValue(fmt.Sprintf("v%d", i%5))}
			}, table.Column{Name: "rk", Type: typ}, table.Column{Name: "rflag", Type: table.Int}, table.Column{Name: "rv", Type: table.Str})
			// Probe keys 0 … 89 (most miss); lflag selects all of group 0,
			// none of group 2 and alternate rows elsewhere.
			left := mk(5*perGroup, func(i int) []table.Value {
				flag := int64(i % 2)
				switch i / perGroup {
				case 0:
					flag = 1
				case 2:
					flag = 0
				}
				return []table.Value{table.IntValue(int64(i)), key(int64(i + i/7)), table.IntValue(flag)}
			}, table.Column{Name: "lp", Type: table.Int}, table.Column{Name: "lk", Type: typ}, table.Column{Name: "lflag", Type: table.Int})
			pred := &engine.Bin{Op: engine.OpAnd,
				L: &engine.Bin{Op: engine.OpEq, L: &engine.ColRef{Idx: 2}, R: &engine.Lit{V: table.IntValue(1)}},
				R: &engine.Bin{Op: engine.OpNe, L: &engine.ColRef{Idx: 4}, R: &engine.Lit{V: table.IntValue(0)}}}
			for _, p := range []engine.Expr{nil, pred} {
				desc := fmt.Sprintf("%s keys, %d build rows, filtered %v", typ, nRight, p != nil)
				c := filteredJoinCase(left, right, 1, 0, encChoice{opts: encoding.Options{ChunkRows: perGroup}},
					encChoice{opts: encoding.Options{ChunkRows: 8}}, p)
				j, jd := joinedFor(t, c)
				if p != nil && (j.Left.Pred == nil || j.Right.Pred == nil) {
					t.Fatalf("%s: predicate did not reach both sides", desc)
				}
				if (jd.ordOf != nil) != (nRight > 0) {
					t.Fatalf("%s: branch-free probe %v, want %v", desc, jd.ordOf != nil, nRight > 0)
				}
				if nRight > 0 && (len(jd.right) == 0 || int64(len(jd.right)) == j.St.JoinProbeRows) {
					t.Fatalf("%s: %d pairs of %d probed rows, want hits and misses", desc, len(jd.right), j.St.JoinProbeRows)
				}
				checkAssembly(t, desc, c)
			}
		}
	}
}
