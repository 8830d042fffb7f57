package encoding

import (
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
)

// TestKeyDictAddLookup checks IDs in both modes: adding interns each new
// key once and keeps its id, looking up finds added keys and reports -1
// for the rest without interning them.
func TestKeyDictAddLookup(t *testing.T) {
	cols := []*table.Vector{
		{Type: table.Int, Ints: []int64{7, 9, 7, -1, 0, 9}},
		{Type: table.Str, Strs: []string{"ale", "bock", "ale", "", "stout"}},
	}
	for _, vec := range cols {
		kd := NewKeyDict(vec.Type)
		if got := kd.IDs(vec, false, nil); got[0] != -1 || kd.Len() != 0 {
			t.Fatalf("%v: lookup on an empty dictionary gave %v and interned %d keys", vec.Type, got, kd.Len())
		}
		added := kd.IDs(vec, true, nil)
		seen := map[table.Value]int32{}
		for i, id := range added {
			v := vec.Value(i)
			if prev, ok := seen[v]; ok && prev != id {
				t.Fatalf("%v: re-adding %v changed its id %d → %d", vec.Type, v, prev, id)
			}
			for w, other := range seen {
				if w != v && other == id {
					t.Fatalf("%v: distinct keys %v and %v share id %d", vec.Type, v, w, id)
				}
			}
			seen[v] = id
		}
		if kd.Len() != len(seen) {
			t.Fatalf("%v: Len = %d, want %d distinct keys", vec.Type, kd.Len(), len(seen))
		}
		probe := &table.Vector{Type: vec.Type}
		_ = probe.Append(vec.Value(1))
		if vec.Type == table.Int {
			probe.Ints = append(probe.Ints, 42)
		} else {
			probe.Strs = append(probe.Strs, "porter")
		}
		got := kd.IDs(probe, false, nil)
		if got[0] != added[1] || got[1] != -1 {
			t.Fatalf("%v: lookup gave %v, want [%d -1]", vec.Type, got, added[1])
		}
		if kd.Len() != len(seen) {
			t.Fatal("lookup interned an absent key")
		}
	}
}
