package encoding

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
)

// TestKeyDictAddLookup checks IDs in both modes: adding interns each new
// key once and keeps its id, looking up finds added keys and reports -1
// for the rest without interning them. The third column's keys spread too
// wide for the dense window, so it moves to the map mid-column.
func TestKeyDictAddLookup(t *testing.T) {
	cols := []*table.Vector{
		{Type: table.Int, Ints: []int64{7, 9, 7, -1, 0, 9}},
		{Type: table.Str, Strs: []string{"ale", "bock", "ale", "", "stout"}},
		{Type: table.Int, Ints: []int64{7, 9, 7, 1 << 40, -1, -1 << 40, 0, 9, 1 << 40}},
	}
	for ci, vec := range cols {
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
		if wide := ci == 2; vec.Type == table.Int && (kd.ints != nil) != wide {
			t.Fatalf("column %d: moved to the map = %v, want %v", ci, kd.ints != nil, wide)
		}
	}
}

// refInterner is the plain map interner KeyDict must agree with.
type refInterner map[int64]int32

func (r refInterner) ids(keys []int64, add bool) []int32 {
	out := make([]int32, len(keys))
	for i, x := range keys {
		id, ok := r[x]
		if !ok {
			id = -1
			if add {
				id = int32(len(r))
				r[x] = id
			}
		}
		out[i] = id
	}
	return out
}

// keyBatch is one IDs call of a differential check.
type keyBatch struct {
	add  bool
	keys []int64
}

// checkKeyDict runs the batches through a KeyDict and the map interner and
// fails at the first id, -1 or Len they disagree on, or the first time the
// dense window outgrows its stated bound.
func checkKeyDict(t *testing.T, batches []keyBatch) *KeyDict {
	t.Helper()
	kd, ref := NewKeyDict(table.Int), refInterner{}
	for b, batch := range batches {
		got := kd.IDs(&table.Vector{Type: table.Int, Ints: batch.keys}, batch.add, nil)
		want := ref.ids(batch.keys, batch.add)
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d ids for %d keys", b, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch %d (add %v), key %d (%d): id %d, want %d", b, batch.add, i, batch.keys[i], got[i], want[i])
			}
		}
		if kd.Len() != len(ref) {
			t.Fatalf("batch %d: Len %d, want %d", b, kd.Len(), len(ref))
		}
		checkDenseBound(t, kd)
	}
	return kd
}

// checkDenseBound fails when the dense window exceeds 256 KiB + 32 B per
// interned key, the bound KeyDict's doc states.
func checkDenseBound(t *testing.T, kd *KeyDict) {
	t.Helper()
	if bytes := 4 * cap(kd.dense); bytes > 256<<10+32*kd.Len() {
		t.Fatalf("dense window holds %d B for %d keys", bytes, kd.Len())
	}
}

// TestKeyDictSequentialGrowth interns 1<<20 keys in runs that only ever
// leave the window on one side. Reallocating the window for every key
// outside it, or for one inside it, would be quadratic; the window must
// instead double, so it reallocates O(log n) times.
func TestKeyDictSequentialGrowth(t *testing.T) {
	const n = 1 << 20
	for _, tc := range []struct {
		name  string
		key   func(i int) int64
		dense bool
	}{
		{"ascending", func(i int) int64 { return int64(i) }, true},
		{"descending", func(i int) int64 { return -int64(i) }, true},
		{"stride 3", func(i int) int64 { return 1000 + 3*int64(i) }, true},
		{"stride 8", func(i int) int64 { return 8 * int64(i) }, false},
		{"up to MaxInt64", func(i int) int64 { return math.MaxInt64 - n + 1 + int64(i) }, true},
		{"down to MinInt64", func(i int) int64 { return math.MinInt64 + n - 1 - int64(i) }, true},
	} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = tc.key(i)
		}
		kd := NewKeyDict(table.Int)
		var ids []int32
		for lo := 0; lo < n; lo += 4096 {
			ids = kd.IDs(&table.Vector{Type: table.Int, Ints: keys[lo : lo+4096]}, true, ids)
			checkDenseBound(t, kd)
			if limit := 2 * bits.Len(uint(kd.Len())); kd.grows > limit {
				t.Fatalf("%s: the window was reallocated %d times for %d keys, want at most %d", tc.name, kd.grows, kd.Len(), limit)
			}
		}
		for i, id := range ids {
			if id != int32(i) {
				t.Fatalf("%s: key %d got id %d, want %d", tc.name, i, id, i)
			}
		}
		if dense := kd.ints == nil; dense != tc.dense {
			t.Fatalf("%s: dense = %v, want %v", tc.name, dense, tc.dense)
		}
		if got := kd.IDs(&table.Vector{Type: table.Int, Ints: keys}, false, nil); got[n-1] != n-1 || got[0] != 0 {
			t.Fatalf("%s: probing the keys again gave ids %d…%d", tc.name, got[0], got[n-1])
		}
	}
}

// TestKeyDictInt64Edges places keys where the window's bounds would wrap if
// they were computed in int64: each case must give distinct ids and answer
// -1 for the keys around them.
func TestKeyDictInt64Edges(t *testing.T) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	probes := []int64{maxI, maxI - 1, maxI - 63, maxI - 64, minI, minI + 1, minI + 63, minI + 64, -1, 0, 1}
	for _, keys := range [][]int64{
		{maxI, minI},
		{minI, -1},
		{-1, minI},
		{maxI - 10, maxI, maxI - 100, maxI - 5000}, // the window would extend past MaxInt64
		{minI + 10, minI, minI + 100, minI + 5000}, // ... or below MinInt64
		{maxI, maxI - 1<<15, maxI - 1<<17, minI},
		{0, maxI, minI, maxI - 1, minI + 1, 1},
	} {
		checkKeyDict(t, []keyBatch{{false, probes}, {true, keys}, {false, probes}, {true, keys}, {false, probes}})
	}
}

// TestKeyDictTPCDSShapes: the surrogate keys the refresh joins and groups
// on (730 date keys from 2450000, item keys 1…18,040 in random order) stay
// in the dense window, a spread over 1<<40 moves to the map, and the window
// never outgrows its bound on the way. The fourth case's first item keys
// widen the window past half the limit before a key lands below it: the
// window must then grow to the limit, not move to the map.
func TestKeyDictTPCDSShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	batches := func(n int, key func() int64) []keyBatch {
		var bs []keyBatch
		for b := 0; b < 8; b++ {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = key()
			}
			bs = append(bs, keyBatch{b%3 != 2, keys})
		}
		return bs
	}
	for _, tc := range []struct {
		name  string
		bs    []keyBatch
		dense bool
	}{
		{"d_date_sk", batches(1000, func() int64 { return 2450000 + rng.Int63n(730) }), true},
		{"item_sk", batches(20000, func() int64 { return 1 + rng.Int63n(18040) }), true},
		{"spread over 1<<40", batches(1000, func() int64 { return rng.Int63n(1 << 40) }), false},
		{"item_sk, widened from the top", append([]keyBatch{{true, []int64{17000, 93, 18000, 20}}},
			batches(20000, func() int64 { return 1 + rng.Int63n(18040) })...), true},
	} {
		kd := checkKeyDict(t, tc.bs)
		if dense := kd.ints == nil; dense != tc.dense {
			t.Fatalf("%s: dense = %v, want %v", tc.name, dense, tc.dense)
		}
	}
}

// keyEdges are the int64 values around the dense window's wrap points.
var keyEdges = []int64{math.MinInt64, math.MinInt64 + 1, -1 << 53, -1, 0, 1, 1 << 53, math.MaxInt64 - 1, math.MaxInt64}

// FuzzKeyDict checks KeyDict against a plain map interner over fuzz-chosen
// add and probe batches: every id, every -1 and Len must agree, in
// insertion order. Each pair of spec bytes is one batch: the first picks
// add or probe and where the keys come from (a dense run, a sparse spread,
// the int64 edges, or a dense run that turns sparse halfway through, which
// moves a dense dictionary to the map mid-column), the second its length.
func FuzzKeyDict(f *testing.F) {
	f.Add([]byte{1, 200, 0, 50, 7, 200, 0, 255}, int64(1))          // dense, then the switch mid-column
	f.Add([]byte{5, 10, 1, 100, 3, 40, 4, 40}, int64(2))            // edges first, then a dense run and a spread
	f.Add([]byte{1, 255, 1, 255, 1, 255, 7, 255, 2, 255}, int64(3)) // a dense run growing before the switch
	f.Add([]byte{0, 20, 5, 20, 1, 0, 4, 9}, int64(4))               // probes on an empty dictionary, edges only
	f.Fuzz(func(t *testing.T, spec []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		base := 2450000 - rng.Int63n(1<<20)
		dense := func() int64 { return base + rng.Int63n(2000) }
		sparse := func() int64 { return int64(rng.Uint64()) }
		var batches []keyBatch
		for ; len(spec) >= 2; spec = spec[2:] {
			keys := make([]int64, spec[1])
			for i := range keys {
				switch (spec[0] >> 1) % 4 {
				case 0:
					keys[i] = dense()
				case 1:
					keys[i] = sparse()
				case 2:
					keys[i] = keyEdges[rng.Intn(len(keyEdges))]
				default:
					if keys[i] = dense(); i >= len(keys)/2 {
						keys[i] = sparse()
					}
				}
			}
			batches = append(batches, keyBatch{spec[0]&1 == 1, keys})
		}
		checkKeyDict(t, batches)
	})
}

// BenchmarkKeyDictIDs interns and probes 100,000 INT keys drawn from 5,000
// distinct values: dense surrogate keys (a TPC-DS item_sk run) against
// random 63-bit keys, building (add) against probing an already built
// dictionary.
func BenchmarkKeyDictIDs(b *testing.B) {
	const rows, distinct = 100_000, 5_000
	rng := rand.New(rand.NewSource(1))
	dense := make([]int64, distinct)
	sparse := make([]int64, distinct)
	for i := range dense {
		dense[i] = 1 + int64(i)
		sparse[i] = rng.Int63()
	}
	for _, keys := range []struct {
		name string
		vals []int64
	}{{"dense", dense}, {"random63", sparse}} {
		vec := &table.Vector{Type: table.Int, Ints: make([]int64, rows)}
		for i := range vec.Ints {
			vec.Ints[i] = keys.vals[rng.Intn(distinct)]
		}
		out := make([]int32, 0, rows)
		b.Run(keys.name+"/add", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				NewKeyDict(table.Int).IDs(vec, true, out[:0])
			}
		})
		b.Run(keys.name+"/probe", func(b *testing.B) {
			kd := NewKeyDict(table.Int)
			kd.IDs(&table.Vector{Type: table.Int, Ints: keys.vals}, true, nil)
			b.ReportAllocs()
			for b.Loop() {
				kd.IDs(vec, false, out[:0])
			}
		})
	}
}
