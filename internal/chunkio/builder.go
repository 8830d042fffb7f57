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
	// DictReused counts code-space chunks whose every dictionary entry
	// predated the current run: the session cache supplied the whole
	// dictionary and the chunk's encode was pure id gathering.
	DictReused int64
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
//	AppendCode   one shared-dictionary id (code-space joins; see Remap)
//	AppendVector a typed column of decoded or late-materialized values,
//	             appended in bulk
type Builder struct {
	sch    table.Schema
	opts   encoding.Options
	sess   *Session
	target int
	cols   []colBuf
	out    [][]encoding.Chunk
	raw    int64

	// Counters accumulates this builder's work; read it after Finish.
	Counters Counters
}

// colBuf is one column's pending state: gathered shared-dictionary codes
// (code space) until something forces materialized values (value space).
type colBuf struct {
	typ    table.Type
	shared *Shared       // nil for FLOAT columns
	warm   bool          // shared holds entries from an earlier run
	codes  []int32       // pending shared ids (code space)
	vals   *table.Vector // pending values (value space; non-nil once active)
	dense  []int32       // scratch for code densification, grow-only
	// entSize memoizes each shared id's raw footprint as this builder
	// learns it (Remap, interning), so per-row accounting in AppendCode
	// never takes the shared dictionary's lock.
	entSize []int64
}

// noteSize memoizes one shared id's raw footprint.
func (cb *colBuf) noteSize(id int32, sz int64) {
	for int(id) >= len(cb.entSize) {
		cb.entSize = append(cb.entSize, 0)
	}
	cb.entSize[id] = sz
}

func (cb *colBuf) pending() int {
	if cb.vals != nil {
		return cb.vals.Len()
	}
	return len(cb.codes)
}

// NewBuilder returns a builder for one producer's output. opts supplies the
// codec policy for re-encoded chunks and the target chunk size. sess may be
// nil (no cross-run dictionary reuse); producer keys the session
// dictionaries and should uniquely identify the operator within the
// pipeline (e.g. "node#2").
func NewBuilder(sch table.Schema, opts encoding.Options, sess *Session, producer string) *Builder {
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
		sess:   sess,
		target: target,
		cols:   make([]colBuf, len(sch.Cols)),
		out:    make([][]encoding.Chunk, len(sch.Cols)),
	}
	for ci, col := range sch.Cols {
		cb := &b.cols[ci]
		cb.typ = col.Type
		if col.Type == table.Int || col.Type == table.Str {
			if sess != nil {
				cb.shared = sess.shared(producer, ci, col, sess.MaxEntries)
			} else {
				cb.shared = NewShared(col.Type, 0)
			}
			cb.warm = cb.shared.Base() > 0
		}
	}
	return b
}

// Remap translates a source chunk's dictionary into the column's shared
// dictionary, for use with AppendCode. It returns nil, false when the
// column cannot take codes right now — FLOAT column, value space already
// active, or dictionary overflow — in which case the caller appends values
// instead.
func (b *Builder) Remap(ci int, dv *encoding.DictView) ([]int32, bool) {
	cb := &b.cols[ci]
	if cb.shared == nil || cb.vals != nil {
		return nil, false
	}
	ids, ok := cb.shared.remapDict(dv)
	if !ok {
		return nil, false
	}
	for c, sz := range entrySizes(dv) {
		cb.noteSize(ids[c], sz)
	}
	return ids, true
}

// AppendCode appends one row by shared-dictionary id (from Remap). If the
// column has fallen to value space since the remap, the id is materialized
// through the shared dictionary instead.
func (b *Builder) AppendCode(ci int, id int32) {
	cb := &b.cols[ci]
	if cb.vals != nil {
		v := cb.shared.Value(id)
		b.Counters.MaterializedBytes += valueSizeOf(v)
		appendToVec(cb.vals, v)
		return
	}
	cb.codes = append(cb.codes, id)
	if int(id) < len(cb.entSize) {
		b.raw += cb.entSize[id] // memoized: no lock on the per-row path
	} else {
		b.raw += cb.shared.valueSize(id)
	}
}

// AppendVector appends every row of a decoded vector of the column's type,
// in bulk. When the column's shared dictionary is warm (holds entries from
// an earlier run) and the column is still in code space, INT and STRING
// values intern to codes under one lock — yesterday's dictionary turns the
// encode into id lookups — until the first value the full dictionary cannot
// take; from that value on, and for FLOAT or a cold dictionary, the values
// buffer for re-encoding with codec auto-selection. The result is exactly
// that of appending the values one at a time.
func (b *Builder) AppendVector(ci int, vec *table.Vector) error {
	cb := &b.cols[ci]
	if vec.Type != cb.typ {
		return fmt.Errorf("chunkio: column %q is %v, appended vector is %v", b.sch.Cols[ci].Name, cb.typ, vec.Type)
	}
	b.raw += vec.ByteSize()
	from := 0
	if cb.vals == nil && cb.shared != nil && cb.warm {
		from = cb.shared.intern(vec, cb)
	}
	if from < vec.Len() {
		b.materializePending(cb)
		appendRange(cb.vals, vec, from)
	}
	return nil
}

// materializePending converts a column's pending codes into values — the
// dictionary overflowed mid-build, so the chunk finishes in value space.
func (b *Builder) materializePending(cb *colBuf) {
	if cb.vals == nil {
		cb.vals = &table.Vector{Type: cb.typ}
	}
	if len(cb.codes) == 0 {
		return
	}
	for _, id := range cb.codes {
		v := cb.shared.Value(id)
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
		b.seed(cb, ch)
		return ch, nil
	}
	window := cb.codes[lo:hi]
	ints, strs, codes, maxUsed := cb.shared.dense(window, &cb.dense)
	// A drifting column can intern to a dictionary worse than what codec
	// auto-selection would pick (near-unique values). Interned values fall
	// back to re-encoding then; gathered codes from a real dict source
	// (card bounded by the source encoder's choice) stay dictionary.
	if cb.warm && len(codes) > 0 && (len(ints)+len(strs)) > len(codes)/2+1 {
		vec := &table.Vector{Type: cb.typ}
		for _, id := range window {
			appendToVec(vec, cb.shared.Value(id))
		}
		ch, err := encoding.EncodeChunk(vec, b.opts)
		if err != nil {
			return encoding.Chunk{}, err
		}
		b.Counters.Reencoded++
		return ch, nil
	}
	ch, err := encoding.BuildDictChunk(cb.typ, ints, strs, codes)
	if err != nil {
		return encoding.Chunk{}, err
	}
	b.Counters.CodeChunks++
	if int(maxUsed) < cb.shared.Base() {
		b.Counters.DictReused++
	}
	return ch, nil
}

// seed warms the shared dictionary from a re-encoded chunk that codec
// auto-selection decided is dictionary material, so the next run's encode
// of this column can run as pure id lookups.
func (b *Builder) seed(cb *colBuf, ch encoding.Chunk) {
	if b.sess == nil || cb.shared == nil || ch.Codec != encoding.Dict {
		return
	}
	if dv, err := encoding.ParseDict(ch, cb.typ); err == nil {
		cb.shared.remapDict(dv)
	}
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

// appendRange appends rows [from, len) of src to dst, of the same type.
func appendRange(dst, src *table.Vector, from int) {
	switch dst.Type {
	case table.Int:
		dst.Ints = append(dst.Ints, src.Ints[from:]...)
	case table.Float:
		dst.Floats = append(dst.Floats, src.Floats[from:]...)
	default:
		dst.Strs = append(dst.Strs, src.Strs[from:]...)
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

// entrySizes precomputes the raw footprint of each dictionary entry so
// per-row accounting during a gather is an array read.
func entrySizes(dv *encoding.DictView) []int64 {
	out := make([]int64, dv.Card())
	if dv.Type == table.Int {
		for i := range out {
			out[i] = 8
		}
		return out
	}
	for i, s := range dv.Strs {
		out[i] = int64(len(s)) + 16
	}
	return out
}
