// Package chunkio is S/C's compressed-output subsystem: it lets the join
// kernel (internal/kernels.HashJoinScan, the one operator that emits
// chunks) produce encoding.Compressed output without materializing rows, so
// a join tree's intermediates stay in code space end to end instead of
// becoming a full table between every pair of operators.
//
// A Builder assembles a compressed table from what the join has in hand
// per output column — dictionary codes (the source chunk's dictionary is
// remapped once through the column's output dictionary and the surviving
// codes flow through unchanged, in bulk) or, when no code-space path
// applies, a typed vector of materialized values, handed over whole or
// gathered straight into the column, and re-encoded with the same
// per-chunk codec auto-selection FromTable uses. The join sizes its
// Builder from its pair count, so each column's pending codes or values
// are allocated once, at their final size, and never copied to grow. Each
// output dictionary belongs to its Builder: nothing in this package
// outlives one operator's output, so a refresh over unchanged inputs
// rebuilds the same chunks.
//
// An output dictionary is the compressed path's one dictionary: a vector
// of entries interned by an encoding.KeyDict. Each code-space chunk is
// densified in first-use order and written by encoding.BuildDictChunk
// through the dict codec's own payload writer, so it is byte for byte the
// chunk the dict codec would encode from the values.
//
// Decoding a Builder output always yields exactly the rows that were
// appended, in order — byte-identical to the table the materializing path
// would have produced.
package chunkio

import (
	"fmt"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

// Counters reports what one Builder did, in units the kernel Stats and the
// benchmark JSON surface directly.
type Counters struct {
	// CodeChunks counts column-chunks emitted from gathered dictionary
	// codes: values never materialized, the dictionary was remapped instead
	// of rebuilt.
	CodeChunks int64
	// Reencoded counts column-chunks encoded from materialized values with
	// per-chunk codec auto-selection — the work the code-space paths avoid.
	Reencoded int64
	// MaterializedBytes counts raw bytes the builder itself had to
	// materialize (code→value conversions on dictionary overflow). Bytes
	// decoded by the caller before appending are the caller's to count.
	MaterializedBytes int64
}

// Builder assembles one compressed table incrementally. Every column must
// have received the same number of rows by Finish, which emits them as
// target-sized chunks with aligned boundaries — RowGroups on the result
// never returns nil, so downstream kernels can consume it directly.
//
// Appenders pick the cheapest representation the source allows:
//
//	AppendCodes  output-dictionary ids (code-space joins; see Remap)
//	AppendVector a typed column of decoded or late-materialized values,
//	             handed over to the builder
//	AppendWith   values gathered straight into the column's pending vector
//
// Each column's pending codes or values are allocated once, at the row
// count NewBuilder was given, on its first append. A Builder is used by
// one goroutine; its dictionaries start empty and go with it.
type Builder struct {
	sch    table.Schema
	opts   encoding.Options
	target int
	rows   int // expected output rows: the size of each pending buffer
	cols   []colBuf
	out    [][]encoding.Chunk
	raw    int64
	// Scratch for densifying one chunk's codes (dict.dense), grow-only
	// and reused across chunks and columns.
	denseMap   []int32
	denseEnts  table.Vector
	denseCodes []int32

	// Counters accumulates this builder's work; read it after Finish.
	Counters Counters
}

// colBuf is one column's pending state: gathered output-dictionary codes
// (code space) until something forces materialized values (value space).
type colBuf struct {
	typ   table.Type
	dict  *dict         // nil for FLOAT columns
	codes []int32       // pending dictionary ids (code space)
	vals  *table.Vector // pending values (value space; non-nil once active)
}

func (cb *colBuf) pending() int {
	if cb.vals != nil {
		return cb.vals.Len()
	}
	return len(cb.codes)
}

// NewBuilder returns a builder for one operator's output of about rows
// rows. opts supplies the codec policy for re-encoded chunks and the
// target chunk size. rows sizes each column's pending buffer; appending
// more rows than that still works, at the cost of growing the buffer.
func NewBuilder(sch table.Schema, opts encoding.Options, rows int) *Builder {
	return newBuilder(sch, opts, rows, DefaultMaxEntries)
}

// newBuilder is NewBuilder with each output dictionary capped at
// maxEntries, so tests can overflow one with a few rows.
func newBuilder(sch table.Schema, opts encoding.Options, rows, maxEntries int) *Builder {
	target := opts.ChunkRows
	if target <= 0 {
		target = encoding.DefaultChunkRows
	}
	if target > encoding.MaxChunkRows {
		target = encoding.MaxChunkRows
	}
	b := &Builder{
		sch:    sch,
		opts:   opts,
		target: target,
		rows:   rows,
		cols:   make([]colBuf, len(sch.Cols)),
		out:    make([][]encoding.Chunk, len(sch.Cols)),
	}
	for ci, col := range sch.Cols {
		cb := &b.cols[ci]
		cb.typ = col.Type
		if col.Type == table.Int || col.Type == table.Str {
			cb.dict = newDict(col.Type, maxEntries)
		}
	}
	return b
}

// Remap translates a source chunk's dictionary into the column's output
// dictionary, for use with AppendCodes. It returns nil, false when the
// column cannot take codes right now — FLOAT column, value space already
// active, or dictionary overflow — in which case the caller appends values
// instead.
func (b *Builder) Remap(ci int, dv *encoding.DictView) ([]int32, bool) {
	cb := &b.cols[ci]
	if cb.dict == nil || cb.vals != nil {
		return nil, false
	}
	return cb.dict.remap(dv)
}

// AppendCodes appends one row per output-dictionary id (from Remap), in
// order. If the column has fallen to value space since the remap, the ids
// are materialized through the dictionary instead. ids stays the caller's.
func (b *Builder) AppendCodes(ci int, ids []int32) {
	cb := &b.cols[ci]
	for _, id := range ids {
		b.raw += cb.dict.valueSize(id)
	}
	if cb.vals != nil {
		b.materialize(cb, ids)
		return
	}
	if cb.codes == nil {
		cb.codes = make([]int32, 0, max(b.rows, len(ids)))
	}
	cb.codes = append(cb.codes, ids...)
}

// AppendVector appends every row of a vector of the column's type. The
// vector belongs to the builder from the call on, and the caller must
// neither read nor write it again: a column with nothing pending keeps it
// as its pending values instead of copying it. Otherwise codes pending
// from earlier appends materialize first, so the column finishes in value
// space, and the values are copied in bulk. The result is exactly that of
// appending the values one at a time.
func (b *Builder) AppendVector(ci int, vec *table.Vector) error {
	cb := &b.cols[ci]
	if vec.Type != cb.typ {
		return fmt.Errorf("chunkio: column %q is %v, appended vector is %v", b.sch.Cols[ci].Name, cb.typ, vec.Type)
	}
	b.raw += vec.ByteSize()
	if cb.pending() == 0 {
		cb.vals, cb.codes = vec, nil
		return nil
	}
	b.materializePending(cb)
	cb.vals.AppendVector(vec)
	return nil
}

// AppendWith appends the values gather appends to dst — the column's own
// pending vector, of the column's type — so they land in place instead of
// passing through a caller's buffer. Codes pending from earlier appends
// materialize first. gather must only append to dst and must not keep it.
func (b *Builder) AppendWith(ci int, gather func(dst *table.Vector) error) error {
	cb := &b.cols[ci]
	b.materializePending(cb)
	from := cb.vals.Len()
	if err := gather(cb.vals); err != nil {
		return err
	}
	added := cb.vals.Slice(from, cb.vals.Len())
	b.raw += added.ByteSize()
	return nil
}

// materializePending moves a column to value space, converting its
// pending codes into values.
func (b *Builder) materializePending(cb *colBuf) {
	if cb.vals == nil {
		cb.vals = table.MakeVector(cb.typ, 0, max(b.rows, len(cb.codes)))
	}
	b.materialize(cb, cb.codes)
	cb.codes = nil
}

// materialize appends the values of output-dictionary ids to a column in
// value space. A FLOAT column has no dictionary and never any ids.
func (b *Builder) materialize(cb *colBuf, ids []int32) {
	if len(ids) == 0 {
		return
	}
	from := cb.vals.Len()
	cb.vals.AppendRows(&cb.dict.ents, ids)
	added := cb.vals.Slice(from, cb.vals.Len())
	b.Counters.MaterializedBytes += added.ByteSize()
}

// emitCol encodes rows [lo, hi) of one column's pending buffer.
func (b *Builder) emitCol(cb *colBuf, lo, hi int) (encoding.Chunk, error) {
	if cb.vals != nil {
		rows := cb.vals.Slice(lo, hi)
		ch, err := encoding.EncodeChunk(&rows, b.opts)
		if err != nil {
			return encoding.Chunk{}, err
		}
		b.Counters.Reencoded++
		return ch, nil
	}
	ents, codes := cb.dict.dense(cb.codes[lo:hi], &b.denseMap, &b.denseEnts, &b.denseCodes)
	ch, err := encoding.BuildDictChunk(ents, codes)
	if err != nil {
		return encoding.Chunk{}, err
	}
	b.Counters.CodeChunks++
	return ch, nil
}

// Finish emits every column's rows as aligned chunks, split at the target
// chunk size (the join buffers a whole output and still gets bounded,
// aligned chunks out), and returns the assembled table. The builder must
// not be used afterwards.
func (b *Builder) Finish() (*encoding.Compressed, error) {
	n := 0
	for ci := range b.cols {
		p := b.cols[ci].pending()
		if ci == 0 {
			n = p
		} else if p != n {
			return nil, fmt.Errorf("chunkio: column %d has %d pending rows, column 0 has %d", ci, p, n)
		}
	}
	for lo := 0; lo < n; lo += b.target {
		hi := lo + b.target
		if hi > n {
			hi = n
		}
		for ci := range b.cols {
			ch, err := b.emitCol(&b.cols[ci], lo, hi)
			if err != nil {
				return nil, fmt.Errorf("chunkio: column %q: %w", b.sch.Cols[ci].Name, err)
			}
			b.out[ci] = append(b.out[ci], ch)
		}
	}
	ct := &encoding.Compressed{
		Schema:   b.sch,
		NRows:    n,
		Cols:     b.out,
		RawBytes: b.raw,
	}
	if err := ct.Validate(); err != nil {
		return nil, fmt.Errorf("chunkio: %w", err)
	}
	return ct, nil
}
