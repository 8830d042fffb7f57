package chunkio

import (
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

// DefaultMaxEntries caps an output dictionary's cardinality. A column whose
// distinct-value count outgrows the cap stops being dictionary material —
// per-chunk codec auto-selection would not pick dict for it either — so the
// Builder falls back to value-space re-encoding instead of growing an
// unbounded map.
const DefaultMaxEntries = 1 << 16

// dict is one output column's dictionary: the INT or STRING values (the
// types the dict codec encodes) of every source dictionary remapped into
// it, interned by an encoding.KeyDict, with dense ids in insertion order.
// It belongs to one Builder and lives exactly as long.
type dict struct {
	max  int
	kd   *encoding.KeyDict
	ents table.Vector // the entries, by id; its Type is the column's
}

func newDict(t table.Type, max int) *dict {
	return &dict{max: max, kd: encoding.NewKeyDict(t), ents: table.Vector{Type: t}}
}

// valueSize returns the raw in-memory footprint of one entry, matching
// table.Vector.ByteSize accounting.
func (d *dict) valueSize(id int32) int64 {
	if d.ents.Type == table.Int {
		return 8
	}
	return int64(len(d.ents.Strs[id])) + 16
}

// remap interns every entry of a source chunk's dictionary, returning the
// id per local code — the translation that lets gathered codes pass
// through unchanged. ok is false when the dictionary then holds more than
// max entries. The entries interned past the cap are harmless: the
// overflow is for good (the KeyDict only grows), and the column leaves
// code space.
func (d *dict) remap(dv *encoding.DictView) ([]int32, bool) {
	ids := d.kd.IDs(&dv.Vector, true, nil)
	if d.kd.Len() > d.max {
		return nil, false
	}
	for c, id := range ids {
		if int(id) == d.ents.Len() {
			d.ents.AppendAt(&dv.Vector, c)
		}
	}
	return ids, true
}

// dense translates pending ids into a dense chunk-local dictionary in
// first-use order — exactly the layout dictCodec.Encode would have built
// from the values, produced without touching a value. scratch, ents and
// outBuf are caller-owned grow-only buffers for the remap, the local
// entries and the local codes; the results are views of them, valid until
// the next call.
func (d *dict) dense(codes []int32, scratch *[]int32, ents *table.Vector, outBuf *[]int32) (*table.Vector, []int32) {
	maxUsed := int32(-1)
	for _, id := range codes {
		if id > maxUsed {
			maxUsed = id
		}
	}
	need := int(maxUsed) + 1
	if cap(*scratch) < need {
		*scratch = make([]int32, need)
	}
	remap := (*scratch)[:need]
	for i := range remap {
		remap[i] = -1
	}
	if cap(*outBuf) < len(codes) {
		*outBuf = make([]int32, len(codes))
	}
	out := (*outBuf)[:len(codes)]
	ents.Type = d.ents.Type
	ents.Reset()
	for k, id := range codes {
		local := remap[id]
		if local < 0 {
			local = int32(ents.Len())
			ents.AppendAt(&d.ents, int(id))
			remap[id] = local
		}
		out[k] = local
	}
	return ents, out
}
