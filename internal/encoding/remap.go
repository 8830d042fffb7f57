package encoding

import "github.com/shortcircuit-db/sc/internal/table"

// This file implements the shared key space behind the kernel-side hash
// join (internal/kernels): both join inputs intern their key values into
// one KeyDict per key position, so the build table is keyed by dense ids
// and a probe key the build side never interned is known absent (-1)
// before any other column of its row decodes.

// KeyDict is a growing dictionary of join-key values shared across chunks
// (and across both join inputs). Ids are dense, assigned in insertion
// order; only equality of ids is meaningful. It holds INT or STRING keys;
// float keys stay on the row engine, which owns their NaN/negative-zero
// bucketing.
type KeyDict struct {
	typ  table.Type
	ints map[int64]int
	strs map[string]int
}

// NewKeyDict returns an empty key dictionary for the given key type.
func NewKeyDict(t table.Type) *KeyDict {
	kd := &KeyDict{typ: t}
	if t == table.Int {
		kd.ints = make(map[int64]int)
	} else {
		kd.strs = make(map[string]int)
	}
	return kd
}

// Len returns the number of keys interned; ids are below it.
func (kd *KeyDict) Len() int {
	if kd.typ == table.Int {
		return len(kd.ints)
	}
	return len(kd.strs)
}

// IDs appends the id of every value of vec (of the dictionary's type) to
// out, a column at a time. add interns values not seen before (the build
// side); otherwise such a value's id is -1 — the probe-side signal that no
// build row can match.
func (kd *KeyDict) IDs(vec *table.Vector, add bool, out []int32) []int32 {
	if kd.typ == table.Int {
		for _, x := range vec.Ints {
			id, ok := kd.ints[x]
			if !ok {
				id = -1
				if add {
					id = len(kd.ints)
					kd.ints[x] = id
				}
			}
			out = append(out, int32(id))
		}
		return out
	}
	for _, s := range vec.Strs {
		id, ok := kd.strs[s]
		if !ok {
			id = -1
			if add {
				id = len(kd.strs)
				kd.strs[s] = id
			}
		}
		out = append(out, int32(id))
	}
	return out
}
