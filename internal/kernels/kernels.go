// Package kernels is S/C's compressed-execution subsystem: a hash join and
// an aggregate that run directly on encoding.Compressed chunks without
// decompressing whole tables first.
//
// The row engine (internal/engine) pays a full-column decode before it
// touches a single value. The kernels instead work per aligned row group
// (one chunk per column) and read only what they need:
//
//   - a join side's `column <op> literal` filter reads only its own
//     column, and a row group no row survives is skipped without decoding
//     another column;
//   - the join works one row group and one column at a time: each key
//     column becomes a typed column of shared key ids (a dictionary chunk
//     looked up once per entry, other codecs as a decoded vector), and only
//     the columns and rows of its surviving pairs late-materialize: a
//     probe-side column as typed per-group gathers (gather) appended in
//     bulk, a build-side column laid out once by build ordinal and then
//     gathered by each pair's ordinal;
//   - the aggregate builds only the columns it reads, per row group, and
//     hands them to the row engine's own accumulator through its one entry
//     point, AggAcc.AddCols (columns in), so its result is byte-identical by
//     construction;
//   - a chunk read once decodes into the scan's buffer, reused from group
//     to group (the walk's scratch for a join's gathers, the aggregate's
//     per-column buffers); only a chunk a predicate or join key reads is
//     decoded into a vector the group's context keeps.
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
	parsed  bool
	dict    *encoding.DictView
	vec     *table.Vector // fully decoded values, kept
	decoded bool          // decoded at least once, into vec or a reused buffer
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
	// scratch is the walk's decode buffer, shared by every group of one
	// scan side: a gather decodes a chunk no one kept into it and copies
	// out the rows it needs before the next decode.
	scratch *table.Vector
}

func newChunkCtx(ct *encoding.Compressed, group, rows int, st *Stats, scratch *table.Vector) *chunkCtx {
	return &chunkCtx{ct: ct, group: group, rows: rows, st: st, cols: make([]colState, len(ct.Cols)), scratch: scratch}
}

func (cc *chunkCtx) chunk(col int) encoding.Chunk { return cc.ct.Cols[col][cc.group] }

func (cc *chunkCtx) colType(col int) table.Type { return cc.ct.Schema.Cols[col].Type }

// dict returns the column's dictionary view — its entry table and codes,
// no value decoded — while its chunk is a dictionary chunk no one has
// decoded, and nil otherwise: every other codec (an older store's RLE chunk
// included) is read through vector(). Either way the chunk counts as
// touched.
func (cc *chunkCtx) dict(col int) (*encoding.DictView, error) {
	cs := &cc.cols[col]
	if cs.vec != nil {
		return nil, nil
	}
	if !cs.parsed {
		if ch := cc.chunk(col); ch.Codec == encoding.Dict {
			dv, err := encoding.ParseDict(ch, cc.colType(col))
			if err != nil {
				return nil, err
			}
			if _, err := dv.Codes(); err != nil {
				return nil, err
			}
			cs.dict = dv
		}
		cs.parsed = true
	}
	return cs.dict, nil
}

// vector returns the fully decoded values of the column's chunk, caching
// the result and counting the decoded bytes.
func (cc *chunkCtx) vector(col int) (*table.Vector, error) {
	cs := &cc.cols[col]
	if cs.vec == nil {
		vec, err := cc.decode(col, &table.Vector{})
		if err != nil {
			return nil, err
		}
		cs.vec = vec
	}
	return cs.vec, nil
}

// decode decodes the column's chunk into buf and returns it, or returns
// the kept vector when the column was decoded into one before. The first
// decode of a (group, column) counts its bytes; a repeat into a reused
// buffer does not.
func (cc *chunkCtx) decode(col int, buf *table.Vector) (*table.Vector, error) {
	cs := &cc.cols[col]
	if cs.vec != nil {
		return cs.vec, nil
	}
	if err := encoding.DecodeChunkInto(cc.chunk(col), cc.colType(col), buf); err != nil {
		return nil, err
	}
	if !cs.decoded {
		cs.decoded = true
		cc.st.DecodedBytes += buf.ByteSize()
	}
	return buf, nil
}

// accessor returns a function yielding the column's value at a row,
// materializing as little as possible: a dictionary chunk by code, any
// other chunk decoded and read by index. Only a side filter's row-by-row
// verdict reads through it; the join reads typed columns (keyColumnIDs,
// gather).
func (cc *chunkCtx) accessor(col int) (func(i int) table.Value, error) {
	dv, err := cc.dict(col)
	if err != nil {
		return nil, err
	}
	if dv != nil {
		codes, _ := dv.Codes()
		return func(i int) table.Value { return dv.Value(int(codes[i])) }, nil
	}
	vec, err := cc.vector(col)
	if err != nil {
		return nil, err
	}
	return vec.Value, nil
}

// column returns all of the row group's values of col as a vector, for a
// consumer that reads every row (the aggregate) before the next group: a
// dictionary chunk gathered by code into buf, which like the accessors
// counts no decode; any other chunk decoded into buf, unless it was
// decoded and kept before. buf is reused from group to group.
func (cc *chunkCtx) column(col int, buf *table.Vector) (*table.Vector, error) {
	dv, err := cc.dict(col)
	if err != nil {
		return nil, err
	}
	if dv == nil {
		return cc.decode(col, buf)
	}
	codes, _ := dv.Codes()
	buf.Type = dv.Type
	buf.Reset()
	for _, c := range codes {
		if dv.Type == table.Int {
			buf.Ints = append(buf.Ints, dv.Ints[c])
		} else {
			buf.Strs = append(buf.Strs, dv.Strs[c])
		}
	}
	return buf, nil
}

// finish settles the row group's counters: column-chunks never touched
// were skipped outright, chunks touched only in their encoded form avoided
// a decode the row engine would have paid.
func (cc *chunkCtx) finish() {
	for i := range cc.cols {
		cs := &cc.cols[i]
		switch {
		case cs.decoded:
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
// by code; other codecs decode the chunk into the walk's scratch buffer
// first, which dst never is. Values served from a decoded chunk were
// counted at decode; late-materialized ones (dictionary reads) count here,
// per value.
func (cc *chunkCtx) gather(col int, rows []int32, dst *table.Vector) error {
	dv, err := cc.dict(col)
	if err != nil {
		return err
	}
	if dv == nil {
		vec, err := cc.decode(col, cc.scratch)
		if err != nil {
			return err
		}
		dst.AppendRows(vec, rows)
		return nil
	}
	codes, _ := dv.Codes()
	if dst.Type == table.Int {
		for _, r := range rows {
			dst.Ints = append(dst.Ints, dv.Ints[codes[r]])
		}
		cc.st.DecodedBytes += 8 * int64(len(rows))
		return nil
	}
	// Late-materialized: the bytes that actually had to be produced.
	for _, r := range rows {
		s := dv.Strs[codes[r]]
		dst.Strs = append(dst.Strs, s)
		cc.st.DecodedBytes += int64(len(s)) + 16
	}
	return nil
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
