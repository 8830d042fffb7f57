package memcat

import (
	"math/rand"
	"testing"

	"github.com/shortcircuit-db/sc/internal/colfmt"
)

// TestPoolInvariantUnderRandomMutations drives 1–3 catalogs of one Pool
// through random PutEntry of every form, re-Put, Delete and Detach. After
// each mutation every catalog holds at most its capacity and at most its
// peak, the pool's used bytes are the sum over the catalogs still attached,
// and Pool.charge never clamps: the running total the deltas add up to
// never goes below zero and is the pool's used bytes exactly.
func TestPoolInvariantUnderRandomMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var entries []Entry
	for _, rows := range []int{1, 40, 300, 2000} {
		tb := compressibleTable(t, rows)
		data, err := colfmt.Encode(tb)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, Plain(tb), SerializedEntry{Data: data, RawBytes: tb.ByteSize()}, compress(t, tb))
	}
	names := []string{"a", "b", "c", "d", "e"}
	for round := 0; round < 200; round++ {
		p := NewPool(1 << 30)
		cats := make([]*Catalog, 1+rng.Intn(3))
		attached := make([]bool, len(cats))
		for i := range cats {
			cats[i] = p.NewCatalog(int64(1 + rng.Intn(200_000)))
			attached[i] = true
		}
		var total int64 // the pool's used bytes as the charged deltas add up, unclamped
		for step := 0; step < 60; step++ {
			i := rng.Intn(len(cats))
			c, name := cats[i], names[rng.Intn(len(names))]
			was, before := attached[i], c.Used()
			switch op := rng.Intn(10); {
			case op < 6: // a first Put or a re-Put, of any form
				_ = c.PutEntry(name, entries[rng.Intn(len(entries))])
			case op < 9:
				_ = c.Delete(name)
			default:
				c.Detach()
				attached[i] = false
			}
			if was { // the pool saw this catalog's change: its bytes, or their credit on Detach
				now := c.Used()
				if !attached[i] {
					now = 0
				}
				total += now - before
			}
			if total < 0 {
				t.Fatalf("round %d step %d: the pool's deltas went below zero (%d): charge clamped", round, step, total)
			}
			var sum int64
			for j, c := range cats {
				used, peak := c.Used(), c.Peak()
				if used < 0 || used > c.Capacity() || used > peak {
					t.Fatalf("round %d step %d: catalog %d used %d, capacity %d, peak %d", round, step, j, used, c.Capacity(), peak)
				}
				if attached[j] {
					sum += used
				}
			}
			if st := p.Stats(); st.Used != sum || st.Used != total {
				t.Fatalf("round %d step %d: pool used %d, attached catalogs hold %d, deltas add to %d", round, step, st.Used, sum, total)
			}
		}
	}
}
