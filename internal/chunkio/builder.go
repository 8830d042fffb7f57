// Package chunkio is S/C's compressed-output subsystem: it lets the join
// kernel (internal/kernels.HashJoinScan, the one operator that emits
// chunks) produce encoding.Compressed output without materializing rows, so
// a join tree's intermediates stay in code space end to end instead of
// becoming a full table between every pair of operators.
//
// A Builder assembles a compressed table from what the join has in hand
// per output column — dictionary codes (the source chunk's dictionary is
// remapped once through the column's output dictionary and the surviving
// codes flow through unchanged) or, when no code-space path applies, a
// typed vector of materialized values, appended in bulk and re-encoded
// with the same per-chunk codec auto-selection FromTable uses. Each output
// dictionary belongs to its Builder: nothing in this package outlives one
// operator's output, so a refresh over unchanged inputs rebuilds the same
// chunks.
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
//	AppendCode   one output-dictionary id (code-space joins; see Remap)
//	AppendVector a typed column of decoded or late-materialized values,
//	             appended in bulk
//
// A Builder is used by one goroutine; its dictionaries start empty and
// go with it.
type Builder struct {
	sch    table.Schema
	opts   encoding.Options
	target int
	cols   []colBuf
	out    [][]encoding.Chunk
	raw    int64

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
	dense []int32       // scratch for code densification, grow-only
}

func (cb *colBuf) pending() int {
	if cb.vals != nil {
		return cb.vals.Len()
	}
	return len(cb.codes)
}

// NewBuilder returns a builder for one operator's output. opts supplies
// the codec policy for re-encoded chunks and the target chunk size.
func NewBuilder(sch table.Schema, opts encoding.Options) *Builder {
	return newBuilder(sch, opts, DefaultMaxEntries)
}

// newBuilder is NewBuilder with each output dictionary capped at
// maxEntries, so tests can overflow one with a few rows.
func newBuilder(sch table.Schema, opts encoding.Options, maxEntries int) *Builder {
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
// dictionary, for use with AppendCode. It returns nil, false when the
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

// AppendCode appends one row by output-dictionary id (from Remap). If the
// column has fallen to value space since the remap, the id is materialized
// through the dictionary instead.
func (b *Builder) AppendCode(ci int, id int32) {
	cb := &b.cols[ci]
	if cb.vals != nil {
		v := cb.dict.value(id)
		b.Counters.MaterializedBytes += valueSizeOf(v)
		appendToVec(cb.vals, v)
		return
	}
	cb.codes = append(cb.codes, id)
	b.raw += cb.dict.valueSize(id)
}

// AppendVector appends every row of a decoded vector of the column's type,
// in bulk. The values buffer for re-encoding with codec auto-selection;
// codes pending from earlier appends materialize first, so the column
// finishes in value space. The result is exactly that of appending the
// values one at a time.
func (b *Builder) AppendVector(ci int, vec *table.Vector) error {
	cb := &b.cols[ci]
	if vec.Type != cb.typ {
		return fmt.Errorf("chunkio: column %q is %v, appended vector is %v", b.sch.Cols[ci].Name, cb.typ, vec.Type)
	}
	b.raw += vec.ByteSize()
	b.materializePending(cb)
	appendVals(cb.vals, vec)
	return nil
}

// materializePending moves a column to value space, converting its
// pending codes into values.
func (b *Builder) materializePending(cb *colBuf) {
	if cb.vals == nil {
		cb.vals = &table.Vector{Type: cb.typ}
	}
	if len(cb.codes) == 0 {
		return
	}
	for _, id := range cb.codes {
		v := cb.dict.value(id)
		b.Counters.MaterializedBytes += valueSizeOf(v)
		appendToVec(cb.vals, v)
	}
	cb.codes = cb.codes[:0]
}

// emitCol encodes rows [lo, hi) of one column's pending buffer.
func (b *Builder) emitCol(cb *colBuf, lo, hi int) (encoding.Chunk, error) {
	if cb.vals != nil {
		ch, err := encoding.EncodeChunk(vecSlice(cb.vals, lo, hi), b.opts)
		if err != nil {
			return encoding.Chunk{}, err
		}
		b.Counters.Reencoded++
		return ch, nil
	}
	ints, strs, codes := cb.dict.dense(cb.codes[lo:hi], &cb.dense)
	ch, err := encoding.BuildDictChunk(cb.typ, ints, strs, codes)
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

// --- small helpers ---

// vecSlice views rows [lo, hi) of a vector without copying.
func vecSlice(v *table.Vector, lo, hi int) *table.Vector {
	out := &table.Vector{Type: v.Type}
	switch v.Type {
	case table.Int:
		out.Ints = v.Ints[lo:hi]
	case table.Float:
		out.Floats = v.Floats[lo:hi]
	default:
		out.Strs = v.Strs[lo:hi]
	}
	return out
}

// appendVals appends every row of src to dst, of the same type.
func appendVals(dst, src *table.Vector) {
	switch dst.Type {
	case table.Int:
		dst.Ints = append(dst.Ints, src.Ints...)
	case table.Float:
		dst.Floats = append(dst.Floats, src.Floats...)
	default:
		dst.Strs = append(dst.Strs, src.Strs...)
	}
}

func appendToVec(dst *table.Vector, v table.Value) {
	switch dst.Type {
	case table.Int:
		dst.Ints = append(dst.Ints, v.I)
	case table.Float:
		dst.Floats = append(dst.Floats, v.F)
	default:
		dst.Strs = append(dst.Strs, v.S)
	}
}

func valueSizeOf(v table.Value) int64 {
	if v.Type == table.Str {
		return int64(len(v.S)) + 16
	}
	return 8
}
