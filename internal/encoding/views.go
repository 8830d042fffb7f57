package encoding

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/shortcircuit-db/sc/internal/table"
)

// This file exposes structural views of encoded chunk payloads so the
// compressed-execution kernels (internal/kernels) can work in the encoded
// domain: dictionary chunks hand out their entry table plus bit-packed
// codes (values never materialize for rows a predicate rejects), and RLE
// chunks hand out their runs (aggregates consume run lengths without
// expanding them). The payload layouts are owned by the codecs in
// codecs.go; these parsers must track them.

// DictView is a parsed dictionary chunk: the entry table in code order and
// the bit-packed per-row codes.
type DictView struct {
	Type table.Type
	Ints []int64  // entries when Type == table.Int
	Strs []string // entries when Type == table.Str

	width  int
	packed []byte
	rows   int

	codes  []uint64 // lazily unpacked
	sorted []int    // codes ordered by entry value, lazily built
}

// ParseDict parses a Dict chunk without materializing any row value.
func ParseDict(ch Chunk, t table.Type) (*DictView, error) {
	if ch.Codec != Dict {
		return nil, fmt.Errorf("%w: ParseDict on %s chunk", ErrUnsupported, ch.Codec)
	}
	payload := ch.Data
	nEntries, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, fmt.Errorf("%w: bad dict size", ErrCorrupt)
	}
	off := k
	if nEntries > uint64(ch.Rows) {
		return nil, fmt.Errorf("%w: dict larger than column", ErrCorrupt)
	}
	if nEntries == 0 && ch.Rows > 0 {
		return nil, fmt.Errorf("%w: empty dict for %d rows", ErrCorrupt, ch.Rows)
	}
	d := &DictView{Type: t, rows: ch.Rows}
	switch t {
	case table.Int:
		d.Ints = make([]int64, 0, nEntries)
		for e := uint64(0); e < nEntries; e++ {
			x, k := binary.Varint(payload[off:])
			if k <= 0 {
				return nil, fmt.Errorf("%w: bad dict entry", ErrCorrupt)
			}
			off += k
			d.Ints = append(d.Ints, x)
		}
	case table.Str:
		d.Strs = make([]string, 0, nEntries)
		for e := uint64(0); e < nEntries; e++ {
			l, k := binary.Uvarint(payload[off:])
			if k <= 0 {
				return nil, fmt.Errorf("%w: bad dict entry length", ErrCorrupt)
			}
			off += k
			if l > uint64(len(payload)-off) {
				return nil, fmt.Errorf("%w: dict entry overruns payload", ErrCorrupt)
			}
			d.Strs = append(d.Strs, string(payload[off:off+int(l)]))
			off += int(l)
		}
	default:
		return nil, fmt.Errorf("%w: dict on %s", ErrUnsupported, t)
	}
	if off < len(payload) {
		d.width = int(payload[off])
		off++
	} else if ch.Rows != 0 {
		return nil, fmt.Errorf("%w: missing dict width", ErrCorrupt)
	}
	if d.width > 64 {
		return nil, fmt.Errorf("%w: dict width %d", ErrCorrupt, d.width)
	}
	d.packed = payload[off:]
	return d, nil
}

// Card returns the number of dictionary entries.
func (d *DictView) Card() int {
	if d.Type == table.Int {
		return len(d.Ints)
	}
	return len(d.Strs)
}

// Value returns the entry for a code.
func (d *DictView) Value(code int) table.Value {
	if d.Type == table.Int {
		return table.IntValue(d.Ints[code])
	}
	return table.StrValue(d.Strs[code])
}

// Codes unpacks the per-row codes (cached after the first call). Every code
// is validated against the entry table, so callers can index without
// re-checking.
func (d *DictView) Codes() ([]uint64, error) {
	if d.codes != nil || d.rows == 0 {
		return d.codes, nil
	}
	codes, err := unpackBits(d.packed, d.width, d.rows)
	if err != nil {
		return nil, err
	}
	card := uint64(d.Card())
	for _, c := range codes {
		if c >= card {
			return nil, fmt.Errorf("%w: dict index out of range", ErrCorrupt)
		}
	}
	d.codes = codes
	return codes, nil
}

// SortedCodes returns the codes ordered by their entry values (cached): the
// sorted-dictionary code map that turns a range predicate into a binary
// search plus a code-set membership test.
func (d *DictView) SortedCodes() []int {
	if d.sorted != nil {
		return d.sorted
	}
	s := make([]int, d.Card())
	for i := range s {
		s[i] = i
	}
	if d.Type == table.Int {
		sort.Slice(s, func(a, b int) bool { return d.Ints[s[a]] < d.Ints[s[b]] })
	} else {
		sort.Slice(s, func(a, b int) bool { return d.Strs[s[a]] < d.Strs[s[b]] })
	}
	d.sorted = s
	return s
}

// Run is one run of an RLE chunk: Len consecutive rows with value Val.
type Run struct {
	Len int
	Val table.Value
}

// ParseRuns parses an RLE chunk into its runs without expanding them.
func ParseRuns(ch Chunk, t table.Type) ([]Run, error) {
	if ch.Codec != RLE {
		return nil, fmt.Errorf("%w: ParseRuns on %s chunk", ErrUnsupported, ch.Codec)
	}
	payload := ch.Data
	var runs []Run
	count := 0
	for off := 0; off < len(payload); {
		runLen, k := binary.Uvarint(payload[off:])
		if k <= 0 || runLen == 0 {
			return nil, fmt.Errorf("%w: bad run length", ErrCorrupt)
		}
		off += k
		if runLen > uint64(ch.Rows-count) {
			return nil, fmt.Errorf("%w: run overruns rows", ErrCorrupt)
		}
		var v table.Value
		switch t {
		case table.Int:
			x, k := binary.Varint(payload[off:])
			if k <= 0 {
				return nil, fmt.Errorf("%w: bad run value", ErrCorrupt)
			}
			off += k
			v = table.IntValue(x)
		case table.Float:
			if len(payload)-off < 8 {
				return nil, fmt.Errorf("%w: truncated float run", ErrCorrupt)
			}
			v = table.FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(payload[off:])))
			off += 8
		default:
			l, k := binary.Uvarint(payload[off:])
			if k <= 0 {
				return nil, fmt.Errorf("%w: bad run string length", ErrCorrupt)
			}
			off += k
			if l > uint64(len(payload)-off) {
				return nil, fmt.Errorf("%w: run string overruns payload", ErrCorrupt)
			}
			v = table.StrValue(string(payload[off : off+int(l)]))
			off += int(l)
		}
		runs = append(runs, Run{Len: int(runLen), Val: v})
		count += int(runLen)
	}
	if count != ch.Rows {
		return nil, fmt.Errorf("%w: %d values, want %d", ErrCorrupt, count, ch.Rows)
	}
	return runs, nil
}

// DecodeChunk fully decodes one chunk into a vector of type t.
func DecodeChunk(ch Chunk, t table.Type) (*table.Vector, error) {
	codec, err := ByID(ch.Codec)
	if err != nil {
		return nil, err
	}
	return codec.Decode(ch.Data, t, ch.Rows)
}

// RowGroups returns the per-group row counts when every column shares the
// same chunk boundaries (the layout FromTable produces), or nil when chunk
// boundaries differ across columns — kernels require alignment and fall
// back to the row engine otherwise. A zero-column or zero-row table returns
// an empty, non-nil slice.
func (c *Compressed) RowGroups() []int {
	if len(c.Cols) == 0 {
		return []int{}
	}
	first := c.Cols[0]
	groups := make([]int, len(first))
	for i, ch := range first {
		groups[i] = ch.Rows
	}
	for _, chunks := range c.Cols[1:] {
		if len(chunks) != len(first) {
			return nil
		}
		for i, ch := range chunks {
			if ch.Rows != groups[i] {
				return nil
			}
		}
	}
	return groups
}

// HeadTable decodes the table's first n rows into a plain table: whole
// leading chunks, then only the needed prefix of the chunk the n-th row
// falls in — what a reader of a table's first rows has to pay. With n <= 0
// or n >= NRows it is Table.
func (c *Compressed) HeadTable(n int) (*table.Table, error) {
	if n <= 0 || n >= c.NRows {
		return c.Table()
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	t := table.New(c.Schema)
	for ci, chunks := range c.Cols {
		col := c.Schema.Cols[ci]
		for need, i := n, 0; need > 0; i++ {
			k := min(need, chunks[i].Rows)
			part, err := decodeHead(chunks[i], col.Type, k)
			if err != nil {
				return nil, fmt.Errorf("encoding: column %q: %w", col.Name, err)
			}
			if i == 0 {
				t.Cols[ci] = part
			} else {
				t.Cols[ci].Ints = append(t.Cols[ci].Ints, part.Ints...)
				t.Cols[ci].Floats = append(t.Cols[ci].Floats, part.Floats...)
				t.Cols[ci].Strs = append(t.Cols[ci].Strs, part.Strs...)
			}
			need -= k
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return t, nil
}

// decodeHead decodes the first k rows of a chunk, 0 < k <= ch.Rows, reading
// no more of the payload than they occupy where the codec's layout allows
// it: fixed-width raw values, bit-packed dict codes and deltas, and runs.
// Raw strings have no row index, so that one case decodes whole.
func decodeHead(ch Chunk, t table.Type, k int) (*table.Vector, error) {
	if k == ch.Rows {
		return DecodeChunk(ch, t)
	}
	switch ch.Codec {
	case Raw:
		if t != table.Str && len(ch.Data) == ch.Rows*8 {
			return rawCodec{}.Decode(ch.Data[:k*8], t, k)
		}
	case Delta:
		// unpackBits asks only for the bytes its n values need.
		return deltaCodec{}.Decode(ch.Data, t, k)
	case Dict:
		d, err := ParseDict(ch, t)
		if err != nil {
			return nil, err
		}
		d.rows = k
		codes, err := d.Codes()
		if err != nil {
			return nil, err
		}
		out := &table.Vector{Type: t}
		for _, code := range codes {
			_ = out.Append(d.Value(int(code)))
		}
		return out, nil
	case RLE:
		runs, err := ParseRuns(ch, t)
		if err != nil {
			return nil, err
		}
		out := &table.Vector{Type: t}
		for _, r := range runs {
			for j := 0; j < r.Len && out.Len() < k; j++ {
				_ = out.Append(r.Val)
			}
		}
		return out, nil
	case FloatDec:
		if len(ch.Data) >= 2 && int(ch.Data[0]) < len(floatDecScales) && CodecID(ch.Data[1]) != FloatDec {
			iv, err := decodeHead(Chunk{Codec: CodecID(ch.Data[1]), Rows: ch.Rows, Data: ch.Data[2:]}, table.Int, k)
			if err != nil {
				return nil, err
			}
			out := &table.Vector{Type: table.Float, Floats: make([]float64, k)}
			for i, x := range iv.Ints {
				out.Floats[i] = float64(x) / floatDecScales[ch.Data[0]]
			}
			return out, nil
		}
	}
	// No cheaper way in (or a malformed header): the full decode settles it.
	v, err := DecodeChunk(ch, t)
	if err != nil {
		return nil, err
	}
	return slice(v, 0, k), nil
}
