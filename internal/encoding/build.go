package encoding

import (
	"fmt"

	"github.com/shortcircuit-db/sc/internal/table"
)

// This file is the encode-side companion of views.go: where views.go lets
// the kernels *read* chunk payloads structurally, these helpers let the
// streaming re-encoder (internal/chunkio) *write* chunks without taking a
// detour through materialized values — a dictionary chunk can be built
// straight from gathered codes, and the codec auto-selection that FromTable
// applies per chunk is exposed for re-encoded intermediates.

// EncodeChunk encodes one column vector as a single chunk using the
// options' codec policy — the same per-chunk auto-selection FromTable
// applies. Intermediate-result re-encoders use it for chunks that had to
// materialize values.
func EncodeChunk(v *table.Vector, opts Options) (Chunk, error) {
	return encodeChunk(v, opts, sampleRows)
}

// BuildDictChunk builds a Dict chunk directly from an entry table and
// per-row codes, skipping the value hashing dictCodec.Encode would pay.
// Entries must be in first-use order with every entry referenced by at
// least one code (so the dictionary is never larger than the chunk), which
// is exactly what a dense remap of shared-dictionary ids produces. The
// payload is the one dictCodec.Encode writes for the equivalent value
// sequence: both go through dictPayload.
func BuildDictChunk(entries *table.Vector, codes []int32) (Chunk, error) {
	if entries.Type != table.Int && entries.Type != table.Str {
		return Chunk{}, fmt.Errorf("%w: dict on %s", ErrUnsupported, entries.Type)
	}
	card := entries.Len()
	if card == 0 || card > len(codes) {
		return Chunk{}, fmt.Errorf("%w: %d dict entries for %d rows", ErrCorrupt, card, len(codes))
	}
	for _, c := range codes {
		if uint32(c) >= uint32(card) {
			return Chunk{}, fmt.Errorf("%w: dict code out of range", ErrCorrupt)
		}
	}
	return Chunk{Codec: Dict, Rows: len(codes), Data: dictPayload(entries, codes)}, nil
}
