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
//   - join keys are read through per-chunk accessors (dictionary lookups,
//     run cursors), and the join late-materializes only the columns and rows
//     of its surviving pairs;
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
// There is one loop over row groups (walkGroups in parallel.go): AggScan
// and both phases of the join hand it a per-group body.
//
// Lower rewrites supported join, aggregate and projection subtrees of an
// engine plan onto kernel operators. Every kernel operator keeps its
// original row-engine subtree and falls back to it — byte-identically —
// whenever a table is not available in chunked form (plain catalog
// entries, legacy v1 files, misaligned chunk boundaries).
package kernels

import (
	"fmt"
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
	st.DictReused += c.DictReused
	st.DecodedBytes += c.MaterializedBytes
}

// Env is the chunked-output environment of one node's lowering: the session
// dictionary cache, the producing node's name (keying that cache) and the
// codec policy for re-encoded chunks. A nil Env still lets a join emit
// chunked output — with default options and no cross-run dictionary reuse.
type Env struct {
	Session *chunkio.Session
	Node    string
	Opts    encoding.Options

	nextID int
}

// newID labels one join within the node's plan, so its session dictionaries
// get a stable key across runs (Lower traverses the same plan shape in the
// same order every run).
func (e *Env) newID() int {
	if e == nil {
		return 0
	}
	e.nextID++
	return e.nextID
}

// builderFor returns a Builder for one join's output.
func (e *Env) builderFor(sch table.Schema, id int) *chunkio.Builder {
	if e == nil {
		return chunkio.NewBuilder(sch, encoding.Options{}, nil, "")
	}
	return chunkio.NewBuilder(sch, e.Opts, e.Session, fmt.Sprintf("%s#%d", e.Node, id))
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
// dictionary lookups are random access, RLE runs advance a cursor.
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
// runs into buf. Like the accessors, gathering and expanding count no
// decode; other codecs decode the chunk.
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

// reader is accessor plus a flag telling the caller whether the values come
// from a fully decoded vector — whose bytes were already counted at decode
// time — or are late-materialized (dictionary/RLE reads) and must be
// counted per surviving value.
func (cc *chunkCtx) reader(col int) (func(i int) table.Value, bool, error) {
	fn, err := cc.accessor(col)
	if err != nil {
		return nil, false, err
	}
	return fn, cc.cols[col].vec != nil, nil
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

// countMaterialized counts one late-materialized value: the bytes that
// actually had to be produced.
func countMaterialized(st *Stats, v table.Value) {
	if v.Type == table.Str {
		st.DecodedBytes += int64(len(v.S)) + 16
	} else {
		st.DecodedBytes += 8
	}
}

// setValue writes one surviving value into a pre-sized vector; counted
// marks values served from an already-counted decoded chunk.
func setValue(st *Stats, dst *table.Vector, pos int, v table.Value, counted bool) {
	switch dst.Type {
	case table.Int:
		dst.Ints[pos] = v.I
	case table.Float:
		dst.Floats[pos] = v.F
	default:
		dst.Strs[pos] = v.S
	}
	if !counted {
		countMaterialized(st, v)
	}
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
