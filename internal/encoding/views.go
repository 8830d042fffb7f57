package encoding

import (
	"fmt"

	"github.com/shortcircuit-db/sc/internal/table"
)

// This file exposes the structural view of a dictionary chunk so the
// compressed-execution kernels (internal/kernels) can work in the encoded
// domain: the chunk hands out its entry table plus bit-packed codes (a
// row's value is looked up only when it is read, and a join passes codes
// through to its chunked output). Every other codec, RLE chunks of older
// stores included, reaches the kernels decoded. The dictionary layout is
// read by the codec's own reader in codecs.go (readDict) and written by its
// one writer there (dictPayload); the view is what that reader returns,
// kept instead of expanded.

// DictView is a parsed dictionary chunk: the entry table in code order, a
// table.Vector whose Len is the dictionary's cardinality and whose Value
// reads an entry by code, and the bit-packed per-row codes.
type DictView struct {
	table.Vector // the entries, by code

	width  int
	packed []byte
	rows   int

	codes []uint64 // lazily unpacked
}

// ParseDict parses a Dict chunk without materializing any row value.
func ParseDict(ch Chunk, t table.Type) (*DictView, error) {
	if ch.Codec != Dict {
		return nil, fmt.Errorf("%w: ParseDict on %s chunk", ErrUnsupported, ch.Codec)
	}
	d, err := readDict(ch.Data, t, ch.Rows, nil)
	if err != nil {
		return nil, err
	}
	return &d, nil
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
	card := uint64(d.Len())
	for _, c := range codes {
		if c >= card {
			return nil, fmt.Errorf("%w: dict index out of range", ErrCorrupt)
		}
	}
	d.codes = codes
	return codes, nil
}

// DecodeChunk fully decodes one chunk into a new vector of type t.
func DecodeChunk(ch Chunk, t table.Type) (*table.Vector, error) {
	v := &table.Vector{}
	if err := DecodeChunkInto(ch, t, v); err != nil {
		return nil, err
	}
	return v, nil
}

// DecodeChunkInto fully decodes one chunk into dst, replacing its contents
// with the chunk's values as type t and reusing its storage: a caller that
// decodes chunk after chunk into one vector allocates it once. On error
// dst holds unspecified values.
func DecodeChunkInto(ch Chunk, t table.Type, dst *table.Vector) error {
	dst.Type = t
	dst.Reset()
	return decodeInto(ch, ch.Rows, dst)
}

// decodeInto appends the first n (≤ ch.Rows) rows of ch to dst, a vector
// of the column's type.
func decodeInto(ch Chunk, n int, dst *table.Vector) error {
	codec, err := ByID(ch.Codec)
	if err != nil {
		return err
	}
	return codec.decode(ch.Data, ch.Rows, n, dst)
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
