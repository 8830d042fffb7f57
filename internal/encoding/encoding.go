// Package encoding implements S/C's compressed columnar subsystem:
// lightweight per-column codecs (dictionary, delta with bit-packing,
// scaled-decimal floats, raw fallback) behind a common Codec interface,
// with per-chunk codec auto-selection. Every codec a writer picks can size
// its payload exactly without building it, so the selector ranks the
// candidates by size — over the whole chunk, or over a sample of a large
// one — and only the chosen codec encodes. Run-length is decode-only: no
// writer picks it, and the chunks older stores hold in it still open.
//
// Every byte shaved off an in-memory table lets the Memory Catalog
// knapsack keep more MVs resident, and every byte shaved off a serialized
// table cuts the storage-bound write cost the optimizer minimizes — so
// the codecs here feed the Memory Catalog (compressed entries with lazy
// decode), the chunked colfmt storage format (per-chunk codec tags) and the
// cost model (compressed size estimates) alike.
//
// All codecs are lossless at the bit level: decode(encode(v)) reproduces
// the input vector byte-identically, including float NaN payloads.
//
// Each payload layout is read in one place (codecs.go): a codec's decode
// and the structural view the kernels work on (views.go: DictView) call
// the same reader, so the row path and the kernels cannot disagree
// about a format. A codec decodes by appending to a caller's vector:
// DecodeChunkInto reuses its storage, so a scan decoding chunk after chunk
// into one buffer allocates it once, and DecodeChunk is DecodeChunkInto on
// a fresh vector.
package encoding

import (
	"errors"
	"fmt"

	"github.com/shortcircuit-db/sc/internal/table"
)

// CodecID identifies a codec in serialized chunk headers. Values are part
// of the chunked colfmt on-disk format and must never be renumbered.
type CodecID uint8

// Codec identifiers.
const (
	Raw      CodecID = iota // type-native fixed/length-prefixed layout
	RLE                     // run-length: uvarint(runLen) + one value per run; decode-only
	Dict                    // dictionary + bit-packed indexes (ints, strings)
	Delta                   // zig-zag deltas, bit-packed (ints)
	FloatDec                // scaled-decimal floats re-encoded as ints (floats)
	numCodecs
)

// String returns the codec's canonical name.
func (id CodecID) String() string {
	switch id {
	case Raw:
		return "raw"
	case RLE:
		return "rle"
	case Dict:
		return "dict"
	case Delta:
		return "delta"
	case FloatDec:
		return "floatdec"
	}
	return fmt.Sprintf("codec(%d)", uint8(id))
}

// ErrCorrupt reports a malformed codec payload. Decoders never panic on
// corrupt input; they return an error wrapping ErrCorrupt.
var ErrCorrupt = errors.New("encoding: corrupt payload")

// ErrUnsupported reports a codec/type combination the codec cannot encode
// (e.g. Delta on strings).
var ErrUnsupported = errors.New("encoding: unsupported codec/type combination")

// Codec encodes and decodes one column vector. Implementations are
// stateless and safe for concurrent use.
type Codec interface {
	// ID returns the codec's serialized identifier.
	ID() CodecID
	// CanEncode reports whether the codec applies to columns of type t.
	CanEncode(t table.Type) bool
	// Encode serializes v. It fails with ErrUnsupported when the codec
	// does not apply to v (wrong type, or value-dependent preconditions
	// like FloatDec's decimal-exactness do not hold).
	Encode(v *table.Vector) ([]byte, error)
	// decode appends to dst the first n (≤ rows) values of a payload
	// Encode produced for rows values, as dst.Type, reusing dst's spare
	// capacity; it reads no more of the payload than those values need
	// where the layout allows it. Corrupt payloads yield ErrCorrupt, and
	// dst then holds unspecified values.
	decode(payload []byte, rows, n int, dst *table.Vector) error
	// size returns len(Encode(v)) without building the payload, and fails
	// exactly when Encode would. Codec selection ranks candidates by it.
	size(v *table.Vector) (int, error)
}

// ByID returns the codec for a serialized identifier.
func ByID(id CodecID) (Codec, error) {
	if int(id) >= len(codecs) || codecs[id] == nil {
		return nil, fmt.Errorf("%w: unknown codec %d", ErrCorrupt, id)
	}
	return codecs[id], nil
}

// codecs is the registry, indexed by CodecID.
var codecs = [numCodecs]Codec{
	Raw:      rawCodec{},
	RLE:      rleCodec{},
	Dict:     dictCodec{},
	Delta:    deltaCodec{},
	FloatDec: floatDecCodec{},
}

// Candidates returns the codecs applicable to columns of type t, cheapest
// to try first. Raw always applies and always succeeds.
func Candidates(t table.Type) []Codec {
	out := []Codec{codecs[Raw]}
	for _, c := range codecs {
		if c != nil && c.ID() != Raw && c.CanEncode(t) {
			out = append(out, c)
		}
	}
	return out
}
