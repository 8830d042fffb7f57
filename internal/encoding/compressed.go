package encoding

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/shortcircuit-db/sc/internal/table"
)

// Mode selects how codecs are chosen.
type Mode int

// Modes.
const (
	// ModeAuto sizes every applicable codec's output for each chunk —
	// exactly for a chunk of at most 2×sampleRows rows, extrapolated from
	// a sample for a larger one — and encodes with the smallest. This is
	// the default.
	ModeAuto Mode = iota
	// ModeRaw disables compression: every chunk is stored with the raw
	// codec. Benchmarks use it as the uncompressed baseline.
	ModeRaw
)

// DefaultChunkRows is the chunk size Options' zero value adapts around.
const DefaultChunkRows = 1 << 16

// sampleRows is how many values of a larger chunk the selector sizes each
// codec over; a chunk of at most twice as many rows is sized whole.
const sampleRows = 1024

// MaxChunkRows caps rows per chunk, enforced symmetrically by the encoder
// (Options.ChunkRows is clamped) and by Validate on the decode path. The
// cap bounds what a corrupt or crafted chunk header can make a decoder
// allocate: constant-column codecs (width-0 dict/delta, and a single run
// of an older store's RLE chunk) legitimately expand a few payload bytes
// into a whole chunk of values, so without the cap a tiny torn object
// claiming MaxInt32 rows in one chunk would demand tens of GB before any
// validation could fail.
const MaxChunkRows = 1 << 22

// Options configures table compression.
type Options struct {
	// Mode selects the codec policy; the zero value is ModeAuto.
	Mode Mode
	// ChunkRows is the number of rows per column chunk; codecs are chosen
	// per chunk, so a column whose shape drifts (sorted prefix, then
	// random) still compresses well. Zero means DefaultChunkRows.
	ChunkRows int
}

// chunkRowsFor returns the chunk size for an n-row table. An explicit
// ChunkRows is honored (clamped to MaxChunkRows). The zero value adapts to
// the table: tables at or under DefaultChunkRows rows get a single chunk
// sized to the table, and larger tables get balanced chunks (ceil(n/k) rows
// for the smallest k that keeps chunks under the default) instead of
// full-size chunks plus a tiny, poorly-sampled trailing remainder.
func (o Options) chunkRowsFor(n int) int {
	if o.ChunkRows > 0 {
		if o.ChunkRows > MaxChunkRows {
			return MaxChunkRows
		}
		return o.ChunkRows
	}
	if n <= DefaultChunkRows {
		if n < 1 {
			return 1
		}
		return n
	}
	k := (n + DefaultChunkRows - 1) / DefaultChunkRows
	return (n + k - 1) / k
}

// Chunk is one encoded run of rows of a single column.
type Chunk struct {
	Codec CodecID
	Rows  int
	Data  []byte
}

// ChunkFramingMin is the minimum per-chunk framing of the chunked colfmt
// layout: codec tag (1) + uvarint row count (≥1) + uvarint payload length
// (≥1) + checksum (4). The reader bounds chunk counts with it; SizeBytes
// computes the exact per-chunk cost.
const ChunkFramingMin = 1 + 1 + 1 + 4

// uvarintLen returns the serialized size of v as a binary.PutUvarint
// varint, so SizeBytes can mirror the colfmt framing byte for byte.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Compressed is a table held in compressed columnar form: the schema, the
// row count, and per column a list of encoded chunks. It is what the
// Memory Catalog stores when encoding is enabled (lazy decode on Get) and
// what the chunked colfmt file format frames on disk.
type Compressed struct {
	Schema table.Schema
	NRows  int
	Cols   [][]Chunk // indexed by schema column
	// RawBytes is the in-memory footprint of the uncompressed table, kept
	// for compression-ratio reporting. Zero when unknown (e.g. a file
	// decoded without decompressing).
	RawBytes int64
}

// FromTable compresses t. The input table is not retained.
func FromTable(t *table.Table, opts Options) (*Compressed, error) {
	return fromTable(t, opts, sampleRows)
}

// fromTable is FromTable with the selector's sample size as a parameter,
// so in-package tests can reach the sampled path on small chunks.
func fromTable(t *table.Table, opts Options, sr int) (*Compressed, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := t.NumRows()
	cr := opts.chunkRowsFor(n)
	c := &Compressed{
		Schema:   t.Schema,
		NRows:    n,
		Cols:     make([][]Chunk, len(t.Cols)),
		RawBytes: t.ByteSize(),
	}
	for ci, col := range t.Cols {
		for i := 0; i < n; i += cr {
			j := i + cr
			if j > n {
				j = n
			}
			rows := col.Slice(i, j)
			ch, err := encodeChunk(&rows, opts, sr)
			if err != nil {
				return nil, fmt.Errorf("encoding: column %q: %w", t.Schema.Cols[ci].Name, err)
			}
			c.Cols[ci] = append(c.Cols[ci], ch)
		}
	}
	return c, nil
}

// encodeChunk picks a codec for one chunk and encodes it. ModeRaw always
// uses the raw codec. ModeAuto sizes the applicable codecs over the whole
// of a small chunk and keeps the smallest (bestEncoding); a larger chunk
// ranks them by their size over a sample of sr rows, scaled to the chunk,
// and takes the first whose full encode succeeds (raw never fails, so a
// codec always lands).
func encodeChunk(v *table.Vector, opts Options, sr int) (Chunk, error) {
	n := v.Len()
	if opts.Mode == ModeRaw {
		payload, err := codecs[Raw].Encode(v)
		if err != nil {
			return Chunk{}, err
		}
		return Chunk{Codec: Raw, Rows: n, Data: payload}, nil
	}
	if n <= 2*sr {
		// Small chunk: size it exactly with every candidate, keep the best.
		id, payload, err := bestEncoding(v)
		if err != nil {
			return Chunk{}, err
		}
		return Chunk{Codec: id, Rows: n, Data: payload}, nil
	}
	sample := sampleVec(v, sr)
	type ranked struct {
		c   Codec
		est int
	}
	var cands []ranked
	for _, c := range Candidates(v.Type) {
		size, err := c.size(sample)
		if err != nil {
			continue
		}
		cands = append(cands, ranked{c: c, est: size * n / sample.Len()})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].est < cands[j].est })
	for _, r := range cands {
		payload, err := r.c.Encode(v)
		if err != nil {
			continue // sample passed but the full chunk did not (e.g. floatdec)
		}
		return Chunk{Codec: r.c.ID(), Rows: n, Data: payload}, nil
	}
	payload, err := codecs[Raw].Encode(v)
	if err != nil {
		return Chunk{}, err
	}
	return Chunk{Codec: Raw, Rows: n, Data: payload}, nil
}

// bestEncoding encodes v with its smallest applicable codec (ties break
// toward the earlier candidate, so the lower CodecID): bestCodec ranks the
// candidates by size and only the winner runs Encode.
func bestEncoding(v *table.Vector) (CodecID, []byte, error) {
	c, _ := bestCodec(v)
	payload, err := c.Encode(v)
	if err != nil {
		return 0, nil, err
	}
	return c.ID(), payload, nil
}

// bestCodec returns the candidate whose payload for v is smallest, the
// first one among equals, and that payload's length. Dict is the one
// sizing pass that tracks every value it has seen, so it runs last and
// stops once it cannot win:
// it must come in below every earlier candidate and at or below every
// later one. Raw always applies, so there is always a winner.
func bestCodec(v *table.Vector) (Codec, int) {
	cands := Candidates(v.Type)
	sizes := make([]int, len(cands)) // -1: the codec does not apply
	dict := -1
	for i, c := range cands {
		if c.ID() == Dict {
			dict = i
			continue
		}
		if size, err := c.size(v); err == nil {
			sizes[i] = size
		} else {
			sizes[i] = -1
		}
	}
	if dict >= 0 {
		limit := math.MaxInt
		for i, size := range sizes {
			switch {
			case size < 0 || i == dict:
			case i < dict:
				limit = min(limit, size)
			default:
				limit = min(limit, size+1)
			}
		}
		// Dict applies to every type it is a candidate for.
		sizes[dict], _ = dictCodec{}.sizeBelow(v, limit)
	}
	best := -1
	for i, size := range sizes {
		if size >= 0 && (best < 0 || size < sizes[best]) {
			best = i
		}
	}
	return cands[best], sizes[best]
}

// sampleVec extracts up to sr values as a handful of evenly spaced
// contiguous blocks, preserving local structure so delta widths and
// dictionary cardinalities stay meaningful.
func sampleVec(v *table.Vector, sr int) *table.Vector {
	n := v.Len()
	if n <= sr {
		return v
	}
	const blocks = 8
	blockLen := sr / blocks
	if blockLen == 0 {
		blockLen = 1
	}
	out := &table.Vector{Type: v.Type}
	for b := 0; b < blocks; b++ {
		i := b * (n - blockLen) / (blocks - 1)
		j := i + blockLen
		if j > n {
			j = n
		}
		block := v.Slice(i, j)
		out.AppendVector(&block)
	}
	return out
}

// Table decompresses into a plain table. The result is a fresh table; the
// Compressed value is unchanged and reusable. Every call pays a full
// decode; readers that can consume chunks (the kernels) avoid it.
func (c *Compressed) Table() (*table.Table, error) { return c.HeadTable(c.NRows) }

// HeadTable decodes the table's first n rows into a plain table: whole
// leading chunks, then only the needed prefix of the chunk the n-th row
// falls in — what a reader of a table's first rows has to pay. Every chunk
// decodes straight into its column's tail. With n <= 0 or n >= NRows it is
// Table.
func (c *Compressed) HeadTable(n int) (*table.Table, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 || n > c.NRows {
		n = c.NRows
	}
	t := &table.Table{Schema: c.Schema, Cols: make([]*table.Vector, len(c.Cols))}
	// Reserve the known row count up front (capped like the decoders, so
	// a hostile NRows cannot demand a huge make before chunk 1 decodes);
	// tables under MaxChunkRows rows then append without reallocating.
	hint := allocHint(n, MaxChunkRows)
	for ci, chunks := range c.Cols {
		col := c.Schema.Cols[ci]
		dst := table.MakeVector(col.Type, 0, hint)
		t.Cols[ci] = dst
		for need, i := n, 0; need > 0; i++ {
			k := min(need, chunks[i].Rows)
			if err := decodeInto(chunks[i], k, dst); err != nil {
				return nil, fmt.Errorf("encoding: column %q: %w", col.Name, err)
			}
			need -= k
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return t, nil
}

// SizeBytes reports the compressed footprint: encoded payloads plus the
// exact colfmt framing overhead, so it equals the serialized object's
// size. The Memory Catalog accounts compressed entries with this value.
// The varint framing matters for tiny MVs: a one-row COUNT(*) result costs
// ~16 bytes of framing where fixed-width headers would charge ~40.
func (c *Compressed) SizeBytes() int64 {
	rows := c.NRows
	if rows < 0 {
		rows = 0
	}
	n := int64(4 + uvarintLen(uint64(len(c.Cols))) + uvarintLen(uint64(rows)))
	for ci, chunks := range c.Cols {
		if ci < len(c.Schema.Cols) {
			name := c.Schema.Cols[ci].Name
			n += int64(uvarintLen(uint64(len(name)))+len(name)) + 1 // name + type tag
		}
		n += int64(uvarintLen(uint64(len(chunks))))
		for _, ch := range chunks {
			chRows := ch.Rows
			if chRows < 0 {
				chRows = 0
			}
			n += 1 + int64(uvarintLen(uint64(chRows))+uvarintLen(uint64(len(ch.Data)))+len(ch.Data)) + 4
		}
	}
	return n
}

// Ratio reports RawBytes / SizeBytes, the compression ratio. It returns 1
// when either side is unknown or zero.
func (c *Compressed) Ratio() float64 {
	sz := c.SizeBytes()
	if c.RawBytes <= 0 || sz <= 0 {
		return 1
	}
	return float64(c.RawBytes) / float64(sz)
}

// Validate checks structural consistency: one chunk list per schema
// column, non-negative chunk rows summing to NRows, known codec IDs.
func (c *Compressed) Validate() error {
	if len(c.Cols) != len(c.Schema.Cols) {
		return fmt.Errorf("%w: %d chunk lists for %d columns", ErrCorrupt, len(c.Cols), len(c.Schema.Cols))
	}
	if c.NRows < 0 {
		return fmt.Errorf("%w: negative row count", ErrCorrupt)
	}
	if len(c.Cols) == 0 && c.NRows != 0 {
		// A zero-column table has no row vectors to back a row count; a
		// nonzero claim here is header corruption, not a real table.
		return fmt.Errorf("%w: %d rows with no columns", ErrCorrupt, c.NRows)
	}
	for ci, chunks := range c.Cols {
		rows := 0
		for _, ch := range chunks {
			if ch.Rows <= 0 || ch.Rows > MaxChunkRows {
				return fmt.Errorf("%w: column %d has a chunk of %d rows", ErrCorrupt, ci, ch.Rows)
			}
			if _, err := ByID(ch.Codec); err != nil {
				return err
			}
			rows += ch.Rows
		}
		if rows != c.NRows {
			return fmt.Errorf("%w: column %d has %d rows, want %d", ErrCorrupt, ci, rows, c.NRows)
		}
	}
	return nil
}
