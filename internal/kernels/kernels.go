// Package kernels is S/C's compressed-execution subsystem: a hash join and
// an aggregate that run directly on encoding.Compressed chunks without
// decompressing whole tables first.
//
// The row engine (internal/engine) pays a full-column decode before it
// touches a single value. The kernels instead work per aligned row group
// (one chunk per column) and read only what they need:
//
//   - a join side's `column <op> literal` filter is decided once per run on
//     a run-length chunk, and a row group no row survives is skipped
//     without decoding another column;
//   - the join works one row group and one column at a time: each key
//     column becomes a typed column of shared key ids (a dictionary chunk
//     looked up once per entry, an RLE chunk once per run, other codecs as
//     a decoded vector), and only the columns and rows of its surviving
//     pairs late-materialize, as typed per-group gathers (gather) appended
//     in bulk;
//   - the aggregate builds only the columns it reads, per row group, and
//     hands them to the row engine's own accumulator through its one entry
//     point, AggAcc.AddCols (columns in), so its result is byte-identical by
//     construction.
//
// Every kernel operator returns a table from Run. The hash join can also
// emit its output as compressed chunks (RunChunked, through
// internal/chunkio): that is how a join probes another join's output, how
// an aggregate consumes one, and how a join root's output reaches the
// Memory Catalog and storage, without the rows ever materializing.
//
// There is one loop over row groups (walkGroups in walk.go), serial on the
// node's own token: AggScan and both phases of the join hand it a per-group
// body.
//
// Lower rewrites supported join, aggregate and projection subtrees of an
// engine plan onto kernel operators. Every kernel operator keeps its
// original row-engine subtree and falls back to it — byte-identically —
// whenever a table is not available in chunked form (plain catalog
// entries, legacy v1 files, misaligned chunk boundaries).
package kernels

import (
	"math/bits"

	"github.com/shortcircuit-db/sc/internal/chunkio"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/table"
)

// Stats counts what the kernels did and saved during one plan execution;
// the controller hands them on as the node's metrics and KernelDone event.
type Stats = obs.KernelStats

// addBuilder folds one chunkio.Builder's counters into st. Bytes the
// builder materialized itself (dictionary-overflow conversions) count as
// decoded: they became real values.
func addBuilder(st *Stats, c chunkio.Counters) {
	st.ChunksPassed += c.CodeChunks
	st.ReencodedChunks += c.Reencoded
	st.DecodedBytes += c.MaterializedBytes
}

// Env is the chunked-output environment of one node's lowering: the codec
// policy for chunks its joins emit. A nil Env still lets a join emit
// chunked output, with default options.
type Env struct {
	Opts encoding.Options
}

// opts returns the codec policy for emitted and re-encoded chunks.
func (e *Env) opts() encoding.Options {
	if e == nil {
		return encoding.Options{}
	}
	return e.Opts
}

// --- selection bitmap ---

// bitmap is a fixed-size row-selection vector over one row group.
type bitmap struct {
	words []uint64
}

func newBitmap(n int) *bitmap {
	return &bitmap{words: make([]uint64, (n+63)/64)}
}

func (b *bitmap) set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

func (b *bitmap) get(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// setRange sets rows [lo, hi).
func (b *bitmap) setRange(lo, hi int) {
	for i := lo; i < hi && i&63 != 0; i++ {
		b.set(i)
	}
	if lo&63 != 0 {
		lo = (lo | 63) + 1
	}
	for ; lo+64 <= hi; lo += 64 {
		b.words[lo>>6] = ^uint64(0)
	}
	for ; lo < hi; lo++ {
		b.set(lo)
	}
}

func (b *bitmap) count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// --- per-row-group evaluation context ---

// colState is the cached per-column chunk state of one row group.
type colState struct {
	parsed bool
	dict   *encoding.DictView
	runs   []encoding.Run
	vec    *table.Vector // fully decoded values
}

// chunkCtx evaluates one aligned row group. Parsed and decoded forms are
// cached per column so predicate evaluation and output materialization
// share work: a column decoded for the predicate is reused by the gather.
type chunkCtx struct {
	ct    *encoding.Compressed
	group int
	rows  int
	st    *Stats
	cols  []colState
}

func newChunkCtx(ct *encoding.Compressed, group, rows int, st *Stats) *chunkCtx {
	return &chunkCtx{ct: ct, group: group, rows: rows, st: st, cols: make([]colState, len(ct.Cols))}
}

func (cc *chunkCtx) chunk(col int) encoding.Chunk { return cc.ct.Cols[col][cc.group] }

func (cc *chunkCtx) colType(col int) table.Type { return cc.ct.Schema.Cols[col].Type }

// parse classifies the column's chunk without decoding values: dictionary
// chunks expose their entry table and codes, RLE chunks their runs. Other
// codecs leave the state unparsed; callers use vector() for those.
func (cc *chunkCtx) parse(col int) (*colState, error) {
	cs := &cc.cols[col]
	if cs.parsed || cs.vec != nil {
		return cs, nil
	}
	ch := cc.chunk(col)
	switch ch.Codec {
	case encoding.Dict:
		dv, err := encoding.ParseDict(ch, cc.colType(col))
		if err != nil {
			return nil, err
		}
		if _, err := dv.Codes(); err != nil {
			return nil, err
		}
		cs.dict = dv
	case encoding.RLE:
		runs, err := encoding.ParseRuns(ch, cc.colType(col))
		if err != nil {
			return nil, err
		}
		cs.runs = runs
	}
	cs.parsed = true
	return cs, nil
}

// vector returns the fully decoded values of the column's chunk, caching
// the result and counting the decoded bytes.
func (cc *chunkCtx) vector(col int) (*table.Vector, error) {
	cs := &cc.cols[col]
	if cs.vec != nil {
		return cs.vec, nil
	}
	vec, err := encoding.DecodeChunk(cc.chunk(col), cc.colType(col))
	if err != nil {
		return nil, err
	}
	cs.vec = vec
	cc.st.DecodedBytes += vec.ByteSize()
	return vec, nil
}

// accessor returns a function yielding the column's value at increasing
// row indexes, materializing as little as possible: decoded vectors and
// dictionary lookups are random access, RLE runs advance a cursor. Only a
// side filter's row-by-row verdict reads through it; the join reads typed
// columns (keyColumnIDs, gather).
func (cc *chunkCtx) accessor(col int) (func(i int) table.Value, error) {
	cs, err := cc.parse(col)
	if err != nil {
		return nil, err
	}
	switch {
	case cs.vec != nil:
		return cs.vec.Value, nil
	case cs.dict != nil:
		codes, _ := cs.dict.Codes()
		dv := cs.dict
		return func(i int) table.Value { return dv.Value(int(codes[i])) }, nil
	case cs.runs != nil:
		runs := cs.runs
		runIdx, runStart := 0, 0
		return func(i int) table.Value {
			if i < runStart {
				runIdx, runStart = 0, 0
			}
			for i >= runStart+runs[runIdx].Len {
				runStart += runs[runIdx].Len
				runIdx++
			}
			return runs[runIdx].Val
		}, nil
	default:
		vec, err := cc.vector(col)
		if err != nil {
			return nil, err
		}
		return vec.Value, nil
	}
}

// column returns all of the row group's values of col as a vector, for a
// consumer that reads every row (the aggregate): a decoded chunk as is, a
// dictionary chunk gathered by code into buf, an RLE chunk expanded from its
// runs into buf. Like gather and the accessors, gathering and expanding
// count no decode; other codecs decode the chunk.
func (cc *chunkCtx) column(col int, buf *table.Vector) (*table.Vector, error) {
	cs, err := cc.parse(col)
	if err != nil {
		return nil, err
	}
	switch {
	case cs.vec != nil:
		return cs.vec, nil
	case cs.dict != nil:
		codes, _ := cs.dict.Codes()
		dv := cs.dict
		buf.Type = dv.Type
		buf.Ints, buf.Strs = buf.Ints[:0], buf.Strs[:0]
		for _, c := range codes {
			if dv.Type == table.Int {
				buf.Ints = append(buf.Ints, dv.Ints[c])
			} else {
				buf.Strs = append(buf.Strs, dv.Strs[c])
			}
		}
		return buf, nil
	case cs.runs != nil:
		buf.Type = cc.colType(col)
		buf.Ints, buf.Floats, buf.Strs = buf.Ints[:0], buf.Floats[:0], buf.Strs[:0]
		for _, r := range cs.runs {
			for j := 0; j < r.Len; j++ {
				_ = buf.Append(r.Val)
			}
		}
		return buf, nil
	default:
		return cc.vector(col)
	}
}

// finish settles the row group's counters: column-chunks never touched
// were skipped outright, chunks touched only in their encoded form avoided
// a decode the row engine would have paid.
func (cc *chunkCtx) finish() {
	for i := range cc.cols {
		cs := &cc.cols[i]
		switch {
		case cs.vec != nil:
			// Fully decoded; DecodedBytes was counted at decode time.
		case cs.parsed:
			cc.st.DecodesAvoided++
		default:
			cc.st.ChunksSkipped++
		}
	}
}

// gather appends the column's values at the given local rows (ascending,
// repeats allowed) to dst, a vector of the column's type, reading the chunk
// in its cheapest typed form: a decoded chunk by index, a dictionary chunk
// by code, an RLE chunk with a run cursor; other codecs decode the chunk
// first. Values served from a decoded chunk were counted at decode; late-
// materialized ones (dictionary and RLE reads) count here, per value.
func (cc *chunkCtx) gather(col int, rows []int32, dst *table.Vector) error {
	cs, err := cc.parse(col)
	if err != nil {
		return err
	}
	from := dst.Len()
	switch {
	case cs.vec != nil:
		appendRows(dst, cs.vec, rows)
		return nil
	case cs.dict != nil:
		codes, _ := cs.dict.Codes()
		if dst.Type == table.Int {
			for _, r := range rows {
				dst.Ints = append(dst.Ints, cs.dict.Ints[codes[r]])
			}
		} else {
			for _, r := range rows {
				dst.Strs = append(dst.Strs, cs.dict.Strs[codes[r]])
			}
		}
	case cs.runs != nil:
		run, end := -1, 0
		for _, r := range rows {
			for int(r) >= end {
				run++
				end += cs.runs[run].Len
			}
			v := cs.runs[run].Val
			switch dst.Type {
			case table.Int:
				dst.Ints = append(dst.Ints, v.I)
			case table.Float:
				dst.Floats = append(dst.Floats, v.F)
			default:
				dst.Strs = append(dst.Strs, v.S)
			}
		}
	default:
		vec, err := cc.vector(col)
		if err != nil {
			return err
		}
		appendRows(dst, vec, rows)
		return nil
	}
	// Late-materialized: the bytes that actually had to be produced.
	if dst.Type == table.Str {
		for _, s := range dst.Strs[from:] {
			cc.st.DecodedBytes += int64(len(s)) + 16
		}
	} else {
		cc.st.DecodedBytes += 8 * int64(dst.Len()-from)
	}
	return nil
}

// appendRows appends src's values at rows to dst, of the same type.
func appendRows(dst, src *table.Vector, rows []int32) {
	switch dst.Type {
	case table.Int:
		for _, r := range rows {
			dst.Ints = append(dst.Ints, src.Ints[r])
		}
	case table.Float:
		for _, r := range rows {
			dst.Floats = append(dst.Floats, src.Floats[r])
		}
	default:
		for _, r := range rows {
			dst.Strs = append(dst.Strs, src.Strs[r])
		}
	}
}

// scatter writes src's k-th value to dst at pos[k], of the same type.
func scatter(dst *table.Vector, pos []int32, src *table.Vector) {
	switch dst.Type {
	case table.Int:
		for k, p := range pos {
			dst.Ints[p] = src.Ints[k]
		}
	case table.Float:
		for k, p := range pos {
			dst.Floats[p] = src.Floats[k]
		}
	default:
		for k, p := range pos {
			dst.Strs[p] = src.Strs[k]
		}
	}
}

// newVector returns a vector of n zero values with room for capacity.
func newVector(t table.Type, n, capacity int) *table.Vector {
	v := &table.Vector{Type: t}
	switch t {
	case table.Int:
		v.Ints = make([]int64, n, capacity)
	case table.Float:
		v.Floats = make([]float64, n, capacity)
	default:
		v.Strs = make([]string, n, capacity)
	}
	return v
}

// resetVector empties v, keeping its storage.
func resetVector(v *table.Vector) {
	v.Ints, v.Floats, v.Strs = v.Ints[:0], v.Floats[:0], v.Strs[:0]
}

// resolveChunked resolves a scan's table in compressed chunked form, or
// returns nil when the kernel must fall back to the row engine: no
// compressed resolver, table not chunked, schema mismatch (the fallback
// surfaces the identical error), or misaligned chunk boundaries.
func resolveChunked(ctx *engine.Context, sc *engine.Scan) (*encoding.Compressed, []int) {
	if ctx == nil || ctx.ResolveCompressed == nil {
		return nil, nil
	}
	ct, err := ctx.ResolveCompressed(sc.Name)
	if err != nil || ct == nil {
		return nil, nil
	}
	if !ct.Schema.Equal(sc.Sch) {
		return nil, nil
	}
	groups := ct.RowGroups()
	if groups == nil {
		return nil, nil
	}
	return ct, groups
}
