package encoding

import (
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
)

func TestKeyDictAddLookup(t *testing.T) {
	kd := NewKeyDict(table.Int)
	a := kd.Add(table.IntValue(7))
	b := kd.Add(table.IntValue(9))
	if a == b {
		t.Fatal("distinct keys got the same id")
	}
	if kd.Add(table.IntValue(7)) != a {
		t.Fatal("re-adding a key changed its id")
	}
	if kd.Lookup(table.IntValue(9)) != b {
		t.Fatal("Lookup disagrees with Add")
	}
	if kd.Lookup(table.IntValue(42)) != -1 {
		t.Fatal("absent key did not map to -1")
	}

	ks := NewKeyDict(table.Str)
	x := ks.Add(table.StrValue("ale"))
	if ks.Add(table.StrValue("bock")) == x {
		t.Fatal("distinct string keys got the same id")
	}
	if ks.Lookup(table.StrValue("ale")) != x {
		t.Fatal("Lookup disagrees with Add for a string key")
	}
	if ks.Lookup(table.StrValue("stout")) != -1 {
		t.Fatal("absent string key did not map to -1")
	}
}
