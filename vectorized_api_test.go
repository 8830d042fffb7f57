package sc_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	sc "github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

var updateKernelGolden = flag.Bool("update", false, "rewrite the goldens under testdata/")

// checkGolden compares got with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateKernelGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestChunkedObjectsPinned pins the stored bytes of both writers: the
// sha256 of every object in the store after saving the TPC-DS tables at sf 1
// (seed 42) and two serial refreshes of the 12-MV pipeline must match a
// golden. The compressed path (SaveTableChunked, encoding on) lands codec
// selection, chunk encoding and the chunk re-encoder in
// testdata/chunked_objects.golden; the row path (SaveTable, no encoding)
// lands the v1 writer in testdata/row_objects.golden. A change that means to
// keep either writer's bytes cannot move a hash.
func TestChunkedObjectsPinned(t *testing.T) {
	for _, tc := range []struct {
		name, golden string
		save         func(sc.Store, string, *table.Table) error
		opts         []sc.Option
	}{
		{"chunked", "chunked_objects.golden", func(st sc.Store, name string, tb *table.Table) error {
			return sc.SaveTableChunked(st, name, tb, sc.EncodingOptions{})
		}, []sc.Option{sc.WithEncoding(sc.EncodingOptions{})}},
		{"rows", "row_objects.golden", sc.SaveTable, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, tc.golden, storedObjects(t, tc.save, tc.opts...))
		})
	}
}

// storedObjects saves the TPC-DS tables at sf 1 with save, refreshes the
// 12-MV pipeline twice on one token with opts, and lists every stored
// object's name, length and sha256.
func storedObjects(t *testing.T, save func(sc.Store, string, *table.Table) error, opts ...sc.Option) []byte {
	ctx := context.Background()
	ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var mvs []sc.MV
	for _, n := range tpcds.RealWorkload().Nodes {
		mvs = append(mvs, sc.MV{Name: n.Name, SQL: n.SQL})
	}
	store := sc.NewMemStore()
	for name, tb := range ds.Tables {
		if err := save(store, name, tb); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := sc.New(mvs, store, append([]sc.Option{sc.WithMemory(64 << 20), sc.WithConcurrency(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for refresh := 0; refresh < 2; refresh++ {
		if _, err := ref.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
	}

	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# object bytes sha256")
	for _, name := range names {
		data, err := store.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s %d %x\n", name, len(data), sha256.Sum256(data))
	}
	return buf.Bytes()
}

// TestKernelCountersPinned pins the kernel path of a compressed refresh: the
// 12-MV TPC-DS pipeline at sf 1 over chunked base tables, refreshed twice
// with encoding (and so the kernels) on, must report exactly the kernel counters of
// testdata/kernel_counters.golden for every node of both refreshes — which
// operators lowered, what they decoded, probed and passed as codes — and
// the second refresh must repeat the first.
func TestKernelCountersPinned(t *testing.T) {
	ctx := context.Background()
	mvs, tables := tpcdsPipeline(t, 1)
	store := sc.NewMemStore()
	for name, tb := range tables {
		if err := sc.SaveTableChunked(store, name, tb, sc.EncodingOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := sc.New(mvs, store,
		sc.WithMemory(64<<20),
		sc.WithEncoding(sc.EncodingOptions{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# refresh node lowered fallbacks skipped avoided kernel_bytes build_rows probe_rows passed reencoded dict_reused")
	rows := make([][]string, 2)
	for refresh := 1; refresh <= 2; refresh++ {
		res, err := ref.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		nodes := append([]sc.NodeMetrics(nil), res.Nodes...)
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
		for _, n := range nodes {
			row := fmt.Sprintln(n.Name, n.Lowered, n.Fallbacks, n.ChunksSkipped,
				n.DecodesAvoided, n.DecodedBytes, n.JoinBuildRows, n.JoinProbeRows,
				n.ChunksPassed, n.ReencodedChunks, n.DictReused)
			rows[refresh-1] = append(rows[refresh-1], row)
			fmt.Fprint(&buf, refresh, " ", row)
		}
	}
	// Nothing on the kernel path outlives a refresh, so the second one over
	// unchanged inputs must repeat the first, node for node.
	if !slices.Equal(rows[0], rows[1]) {
		t.Errorf("refresh 2 kernel counters differ from refresh 1:\n%q\n%q", rows[0], rows[1])
	}

	checkGolden(t, "kernel_counters.golden", buf.Bytes())
}

// TestWithVectorizedEndToEnd runs a full refresh session with compressed
// execution on: materialized MVs must match the plain session row for row
// and the event stream must carry kernel telemetry. It also passes the
// deprecated WithVectorized(true), which must change nothing.
func TestWithVectorizedEndToEnd(t *testing.T) {
	mvs := []sc.MV{
		// enriched is itself an MV, so downstream scans read chunked data
		// (the base table is legacy v1 and exercises the fallback).
		{Name: "enriched", SQL: `SELECT user_id, kind, value FROM events ORDER BY kind`},
		{Name: "clicks", SQL: `SELECT user_id, value FROM enriched WHERE kind = 'click'`},
		{Name: "by_user", SQL: `SELECT user_id, SUM(value) AS total, COUNT(*) AS n FROM clicks GROUP BY user_id`},
		{Name: "big", SQL: `SELECT user_id, total FROM by_user WHERE total > 100 ORDER BY total DESC`},
		// The filter moves below the join as the probe side's filter.
		{Name: "click_totals", SQL: `
			SELECT e.user_id AS user_id, e.value AS value, b.total AS total
			FROM enriched e JOIN by_user b ON e.user_id = b.user_id
			WHERE e.kind = 'click'`},
	}
	run := func(opts ...sc.Option) sc.Store {
		store := sc.NewMemStore()
		baseTables(t, store)
		ref, err := sc.New(mvs, store, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
		return store
	}

	var mu sync.Mutex
	var kernelEvents int
	obs := sc.ObserverFunc(func(e sc.Event) {
		if e.Kind != sc.KernelDone {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		kernelEvents++
		if e.Lowered <= 0 {
			t.Errorf("KernelDone with Lowered=%d", e.Lowered)
		}
	})

	plain := run(sc.WithMemory(1 << 20))
	vec := run(sc.WithMemory(1<<20),
		sc.WithEncoding(sc.EncodingOptions{}),
		sc.WithVectorized(true),
		sc.WithObserver(obs),
	)

	for _, m := range mvs {
		mv := m.Name
		a, err := sc.LoadTable(plain, mv)
		if err != nil {
			t.Fatalf("load %s (plain): %v", mv, err)
		}
		b, err := sc.LoadTable(vec, mv)
		if err != nil {
			t.Fatalf("load %s (vectorized): %v", mv, err)
		}
		if a.NumRows() != b.NumRows() || !a.Schema.Equal(b.Schema) {
			t.Fatalf("%s: shape differs with vectorized on", mv)
		}
		for r := 0; r < a.NumRows(); r++ {
			ra, rb := a.Row(r), b.Row(r)
			for c := range ra {
				if ra[c] != rb[c] {
					t.Fatalf("%s row %d col %d differs: %v vs %v", mv, r, c, ra[c], rb[c])
				}
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if kernelEvents == 0 {
		t.Fatal("no KernelDone events reached the observer")
	}
}
