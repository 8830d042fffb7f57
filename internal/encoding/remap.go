package encoding

import (
	"slices"

	"github.com/shortcircuit-db/sc/internal/table"
)

// This file implements the one interner of the compressed path. Both
// inputs of the kernel-side hash join (internal/kernels) intern their key
// values into one KeyDict per key position, so the build table is keyed by
// dense ids and a probe key the build side never interned is known absent
// (-1) before any other column of its row decodes; engine.AggAcc, on both
// engine paths, interns a single INT or STRING group key into one, so a
// group's id is its key's id; a join's output dictionaries
// (internal/chunkio) intern the entries of every source dictionary remapped
// into them; and the dict codec's Encode interns a chunk's values.

// KeyDict is a growing dictionary of key values shared across chunks (and
// across both join inputs). Ids are dense, assigned in insertion order;
// only equality of ids is meaningful. It holds INT or STRING keys; float
// keys stay with the row engine's key encoding (appendKey), which owns
// their NaN/negative-zero bucketing.
//
// INT keys are looked up by offset while they are dense: an id lives in a
// window slice at its key's offset from the window's first key, and a
// lookup is one subtract, one bounds check and one load. A key outside the
// window grows it, on the side the key extends, to twice its size or to
// what covers the key if that is more, but never past the limit of
// max(denseMinSlots, denseSlotsPerKey × keys) slots. When the limit cannot
// cover the key, or would grow the window by less than a quarter, every id
// moves into a hash map, which serves the dictionary from then on. So the
// window, 4 bytes a slot, never exceeds 256 KiB + 32 B per key, and it is
// reallocated O(log keys) times. STRING keys always use the map. Either
// way the ids are the same.
type KeyDict struct {
	typ table.Type
	n   int32 // keys interned

	// The dense window: dense[x-lo] is key x's id + 1, 0 when x is absent.
	// Unused once ints is set.
	lo    int64
	dense []int32
	grows int // window reallocations, for tests

	ints map[int64]int32 // set when the INT keys stopped being dense
	strs map[string]int32
}

// The dense window's size limit, in slots: max(denseMinSlots,
// denseSlotsPerKey × keys).
const (
	denseMinSlots    = 1 << 16
	denseSlotsPerKey = 8
	denseFirstSlots  = 64 // the window the first key allocates
)

// NewKeyDict returns an empty key dictionary for the given key type.
func NewKeyDict(t table.Type) *KeyDict {
	kd := &KeyDict{typ: t}
	if t != table.Int {
		kd.strs = make(map[string]int32)
	}
	return kd
}

// Len returns the number of keys interned; ids are below it.
func (kd *KeyDict) Len() int { return int(kd.n) }

// IDs appends the id of every value of vec (of the dictionary's type) to
// out, a column at a time. add interns values not seen before (the build
// side); otherwise such a value's id is -1 — the probe-side signal that no
// build row can match.
func (kd *KeyDict) IDs(vec *table.Vector, add bool, out []int32) []int32 {
	out = slices.Grow(out, vec.Len())
	if kd.typ != table.Int {
		return mapIDs(kd.strs, vec.Strs, add, out, &kd.n)
	}
	xs := vec.Ints
	if kd.ints != nil {
		return mapIDs(kd.ints, xs, add, out, &kd.n)
	}
	lo, dense := kd.lo, kd.dense
	for i, x := range xs {
		if off := uint64(x - lo); off < uint64(len(dense)) && dense[off] != 0 {
			out = append(out, dense[off]-1)
			continue
		}
		if !add {
			out = append(out, -1)
			continue
		}
		out = append(out, kd.addDense(x))
		if kd.ints != nil { // the rest of the column goes to the map
			return mapIDs(kd.ints, xs[i+1:], add, out, &kd.n)
		}
		lo, dense = kd.lo, kd.dense
	}
	return out
}

// mapIDs is IDs over a hash map; a key repeating the previous key reuses
// its id without a lookup.
func mapIDs[K int64 | string](m map[K]int32, keys []K, add bool, out []int32, n *int32) []int32 {
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			out = append(out, out[len(out)-1])
			continue
		}
		id, ok := m[k]
		if !ok {
			id = -1
			if add {
				id = *n
				m[k] = id
				*n++
			}
		}
		out = append(out, id)
	}
	return out
}

// addDense interns x, absent from the dense window, and returns its id:
// into the window when it covers x or can widen to, otherwise into the map
// every id then moves to.
func (kd *KeyDict) addDense(x int64) int32 {
	id := kd.n
	kd.n++
	off := uint64(x - kd.lo)
	if off >= uint64(len(kd.dense)) && !kd.widen(x) {
		kd.ints = make(map[int64]int32, kd.n)
		for o, v := range kd.dense {
			if v != 0 {
				kd.ints[kd.lo+int64(o)] = v - 1
			}
		}
		kd.dense = nil
		kd.ints[x] = id
		return id
	}
	kd.dense[uint64(x-kd.lo)] = id + 1
	return id
}

// widen reallocates the dense window to cover x, on the side x extends,
// and reports false instead when the limit would not let it cover x or
// grow by a quarter. Bounds are computed on keys biased to uint64
// (order-preserving), so nothing wraps near ±2^63.
func (kd *KeyDict) widen(x int64) bool {
	const bias = 1 << 63
	limit := uint64(max(denseMinSlots, denseSlotsPerKey*int64(kd.n)))
	bx := uint64(x) ^ bias
	size := uint64(denseFirstSlots)
	lo := bx // the new window's first key, biased
	if old := uint64(len(kd.dense)); old > 0 {
		olo := uint64(kd.lo) ^ bias
		ohi := olo + old - 1
		far := bx - olo // the covering span, less one
		if bx < olo {
			far = ohi - bx
		}
		if far >= limit {
			return false
		}
		if size = min(max(far+1, 2*old), limit); size < old+old/4 {
			return false
		}
		lo = olo
		if bx < olo { // extend downwards, clamped at the smallest key
			lo = 0
			if ohi >= size-1 {
				lo = ohi - (size - 1)
			}
		}
	}
	if lo > ^uint64(0)-(size-1) { // clamp at the largest key
		lo = ^uint64(0) - (size - 1)
	}
	dense := make([]int32, size)
	if len(kd.dense) > 0 {
		copy(dense[(uint64(kd.lo)^bias)-lo:], kd.dense)
	}
	kd.lo, kd.dense = int64(lo^bias), dense
	kd.grows++
	return true
}
