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

// Add interns a value of the dictionary's type, returning its id.
func (kd *KeyDict) Add(v table.Value) int {
	if kd.typ == table.Int {
		id, ok := kd.ints[v.I]
		if !ok {
			id = len(kd.ints)
			kd.ints[v.I] = id
		}
		return id
	}
	id, ok := kd.strs[v.S]
	if !ok {
		id = len(kd.strs)
		kd.strs[v.S] = id
	}
	return id
}

// Lookup returns the id of a value, or -1 when it was never added — the
// probe-side signal that no build row can match.
func (kd *KeyDict) Lookup(v table.Value) int {
	if kd.typ == table.Int {
		if id, ok := kd.ints[v.I]; ok {
			return id
		}
		return -1
	}
	if id, ok := kd.strs[v.S]; ok {
		return id
	}
	return -1
}
