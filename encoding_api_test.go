package sc_test

import (
	"context"
	"sync"
	"testing"

	sc "github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/exec"
)

// TestWithEncodingEndToEnd runs a full refresh session with the compressed
// columnar subsystem on: outputs must match the uncompressed session
// row-for-row, the event stream must carry encode/decode telemetry, and the
// optimizer's problem must weigh nodes at their compressed footprint.
func TestWithEncodingEndToEnd(t *testing.T) {
	run := func(opts ...sc.Option) (*sc.RunResult, *sc.Refresher, sc.Store) {
		store := sc.NewMemStore()
		baseTables(t, store)
		ref, err := sc.New(chainMVs(), store, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ref.Refresh(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, ref, store
	}

	var mu sync.Mutex
	var encodes, decodes int
	obs := sc.ObserverFunc(func(e sc.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e.Kind {
		case sc.EncodeDone:
			encodes++
			if e.Ratio <= 0 || e.Encoded <= 0 {
				t.Errorf("EncodeDone with Ratio=%f Encoded=%d", e.Ratio, e.Encoded)
			}
		case sc.DecodeDone:
			decodes++
		}
	})

	_, refPlain, storePlain := run(sc.WithMemory(1 << 20))
	_, refComp, storeComp := run(sc.WithMemory(1<<20), sc.WithEncoding(sc.EncodingOptions{}), sc.WithObserver(obs))

	for _, mv := range []string{"m1", "m2", "m3", "m4"} {
		a, err := sc.LoadTable(storePlain, mv)
		if err != nil {
			t.Fatalf("load %s (plain): %v", mv, err)
		}
		b, err := sc.LoadTable(storeComp, mv)
		if err != nil {
			t.Fatalf("load %s (encoded): %v", mv, err)
		}
		if a.NumRows() != b.NumRows() || !a.Schema.Equal(b.Schema) {
			t.Fatalf("%s: shape differs with encoding on", mv)
		}
		for i := 0; i < a.NumRows(); i++ {
			ra, rb := a.Row(i), b.Row(i)
			for c := range ra {
				if ra[c] != rb[c] {
					t.Fatalf("%s row %d: %v vs %v", mv, i, ra[c], rb[c])
				}
			}
		}
	}

	mu.Lock()
	if encodes != len(chainMVs()) {
		t.Fatalf("EncodeDone events = %d, want %d", encodes, len(chainMVs()))
	}
	mu.Unlock()

	// The optimizer must see compressed sizes: big nodes shrink, and even
	// tiny ones (a COUNT(*) result) only grow by bounded framing overhead.
	const framing = 128
	pPlain, pComp := refPlain.Problem(), refComp.Problem()
	smaller := false
	for i := range pPlain.Sizes {
		if pComp.Sizes[i] > pPlain.Sizes[i]+framing {
			t.Fatalf("node %d: compressed size %d far above raw %d", i, pComp.Sizes[i], pPlain.Sizes[i])
		}
		if pComp.Sizes[i] < pPlain.Sizes[i] {
			smaller = true
		}
	}
	if !smaller {
		t.Fatal("no node got smaller with encoding on")
	}

	// On the TPC-DS pipeline auto codec selection must at least halve the
	// bytes the refresh leaves on the store against the same chunked format
	// with compression off.
	t.Run("tpcds auto halves stored bytes vs raw", func(t *testing.T) {
		mvs, tables := tpcdsPipeline(t, 0.25)
		stored := func(mode sc.EncodingMode) (total int64) {
			store := sc.NewMemStore()
			for name, tb := range tables {
				if err := sc.SaveTable(store, name, tb); err != nil {
					t.Fatal(err)
				}
			}
			ref, err := sc.New(mvs, store, sc.WithMemory(1<<20), sc.WithEncoding(sc.EncodingOptions{Mode: mode}))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			for _, mv := range mvs {
				size, err := exec.TableSize(store, mv.Name)
				if err != nil {
					t.Fatal(err)
				}
				total += size
			}
			return total
		}
		auto, raw := stored(sc.EncodingAuto), stored(sc.EncodingRaw)
		if raw < 2*auto {
			t.Fatalf("auto stored %d bytes, raw %d: reduction %.2fx below 2x", auto, raw, float64(raw)/float64(auto))
		}
	})
}

// TestWithEncodingRawMode keeps the v2 format but disables compression.
func TestWithEncodingRawMode(t *testing.T) {
	store := sc.NewMemStore()
	baseTables(t, store)
	ref, err := sc.New(chainMVs(), store,
		sc.WithMemory(1<<20),
		sc.WithEncoding(sc.EncodingOptions{Mode: sc.EncodingRaw}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.LoadTable(store, "m1"); err != nil {
		t.Fatalf("raw-mode v2 object unreadable: %v", err)
	}
}
