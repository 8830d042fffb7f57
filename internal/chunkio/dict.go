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
// it, with dense ids in insertion order. It belongs to one Builder and
// lives exactly as long.
type dict struct {
	typ   table.Type
	max   int
	ints  map[int64]int32
	strs  map[string]int32
	entsI []int64
	entsS []string
}

func newDict(t table.Type, max int) *dict {
	d := &dict{typ: t, max: max}
	if t == table.Int {
		d.ints = make(map[int64]int32)
	} else {
		d.strs = make(map[string]int32)
	}
	return d
}

// addInt interns one int value; ok is false on overflow.
func (d *dict) addInt(x int64) (int32, bool) {
	if id, ok := d.ints[x]; ok {
		return id, true
	}
	if len(d.entsI) >= d.max {
		return 0, false
	}
	id := int32(len(d.entsI))
	d.ints[x] = id
	d.entsI = append(d.entsI, x)
	return id, true
}

// addStr interns one string value; ok is false on overflow.
func (d *dict) addStr(s string) (int32, bool) {
	if id, ok := d.strs[s]; ok {
		return id, true
	}
	if len(d.entsS) >= d.max {
		return 0, false
	}
	id := int32(len(d.entsS))
	d.strs[s] = id
	d.entsS = append(d.entsS, s)
	return id, true
}

// value returns the entry for an id.
func (d *dict) value(id int32) table.Value {
	if d.typ == table.Int {
		return table.IntValue(d.entsI[id])
	}
	return table.StrValue(d.entsS[id])
}

// valueSize returns the raw in-memory footprint of one entry, matching
// table.Vector.ByteSize accounting.
func (d *dict) valueSize(id int32) int64 {
	if d.typ == table.Int {
		return 8
	}
	return int64(len(d.entsS[id])) + 16
}

// remap interns every entry of a source chunk's dictionary, returning the
// id per local code — the KeyDict-style translation that lets gathered
// codes pass through unchanged. ok is false on overflow (entries interned
// before the overflow remain; they are harmless).
func (d *dict) remap(dv *encoding.DictView) ([]int32, bool) {
	out := make([]int32, dv.Card())
	if d.typ == table.Int {
		for c, x := range dv.Ints {
			id, ok := d.addInt(x)
			if !ok {
				return nil, false
			}
			out[c] = id
		}
	} else {
		for c, s := range dv.Strs {
			id, ok := d.addStr(s)
			if !ok {
				return nil, false
			}
			out[c] = id
		}
	}
	return out, true
}

// dense translates pending ids into a dense chunk-local dictionary in
// first-use order — exactly the layout dictCodec.Encode would have built
// from the values, produced without touching a value. scratch is a caller-
// owned grow-only remap buffer.
func (d *dict) dense(codes []int32, scratch *[]int32) (ints []int64, strs []string, out []uint64) {
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
	out = make([]uint64, len(codes))
	for k, id := range codes {
		local := remap[id]
		if local < 0 {
			if d.typ == table.Int {
				local = int32(len(ints))
				ints = append(ints, d.entsI[id])
			} else {
				local = int32(len(strs))
				strs = append(strs, d.entsS[id])
			}
			remap[id] = local
		}
		out[k] = uint64(local)
	}
	return ints, strs, out
}
