package sc_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	sc "github.com/shortcircuit-db/sc"
)

// chainMVs returns a 4-deep linear pipeline over the events base table.
func chainMVs() []sc.MV {
	return []sc.MV{
		{Name: "m1", SQL: `SELECT user_id, SUM(value) AS total FROM events GROUP BY user_id`},
		{Name: "m2", SQL: `SELECT user_id, total FROM m1 WHERE total > 100`},
		{Name: "m3", SQL: `SELECT user_id, total FROM m2 ORDER BY total DESC`},
		{Name: "m4", SQL: `SELECT COUNT(*) AS n FROM m3`},
	}
}

// branchMVs returns a diamond-with-fanout DAG: one aggregation root, four
// independent mid nodes, and a final consumer — independent nodes for the
// worker pool to overlap.
func branchMVs() []sc.MV {
	mvs := []sc.MV{
		{Name: "root_agg", SQL: `SELECT user_id, kind, SUM(value) AS total, COUNT(*) AS n FROM events GROUP BY user_id, kind`},
	}
	for i := 0; i < 4; i++ {
		mvs = append(mvs, sc.MV{
			Name: fmt.Sprintf("mid%d", i),
			SQL:  fmt.Sprintf(`SELECT user_id, total FROM root_agg WHERE total > %d`, i*50),
		})
	}
	mvs = append(mvs, sc.MV{Name: "final", SQL: `SELECT COUNT(*) AS rows FROM mid0`})
	return mvs
}

func TestNewValidatesInputs(t *testing.T) {
	store := sc.NewMemStore()
	mvs := chainMVs()
	if _, err := sc.New(mvs, nil); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := sc.New(nil, store); err == nil {
		t.Fatal("empty MV list accepted")
	}
	if _, err := sc.New(mvs, store, sc.WithMemory(-1)); err == nil {
		t.Fatal("negative memory budget accepted")
	}
}

func TestSolveHonorsCancelledContext(t *testing.T) {
	b, _ := figure7Builder()
	p := b.Problem(100 * gb)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sc.Solve(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCancelStopsRefreshMidRun(t *testing.T) {
	store := sc.NewMemStore()
	baseTables(t, store)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	watch := sc.ObserverFunc(func(e sc.Event) {
		if e.Kind == sc.NodeDone {
			once.Do(cancel) // pull the plug after the first node completes
		}
	})
	ref, err := sc.New(chainMVs(), store, sc.WithObserver(watch))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial RunResult returned")
	}
	if n := len(res.Nodes); n < 1 || n >= 4 {
		t.Fatalf("partial result has %d nodes, want at least 1 and fewer than 4", n)
	}
	// The tail of the chain must not have been materialized.
	if _, err := sc.LoadTable(store, "m4"); err == nil {
		t.Fatal("m4 materialized despite cancellation")
	}
}

func TestConcurrentRunMatchesSerialByteForByte(t *testing.T) {
	const memory = int64(64) << 20
	run := func(concurrency int) (*sc.RunResult, sc.Store, *sc.Plan) {
		t.Helper()
		store := sc.NewMemStore()
		baseTables(t, store)
		ref, err := sc.New(branchMVs(), store,
			sc.WithMemory(memory),
			sc.WithConcurrency(concurrency),
		)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		// Baseline collects metadata, Optimize flags from it, second run
		// exercises the Memory Catalog (+ worker pool when concurrent).
		if _, err := ref.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
		res, err := ref.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res, store, ref.Plan()
	}

	serialRes, serialStore, plan := run(1)
	concRes, concStore, _ := run(4)

	if len(plan.FlaggedIDs()) == 0 {
		t.Fatal("optimizer flagged nothing; test exercises no Memory Catalog traffic")
	}
	if serialRes.PeakMemory > memory || concRes.PeakMemory > memory {
		t.Fatalf("Memory Catalog budget exceeded: serial peak %d, concurrent peak %d, budget %d",
			serialRes.PeakMemory, concRes.PeakMemory, memory)
	}
	for _, mv := range branchMVs() {
		a, err := serialStore.Read(mv.Name + ".sct")
		if err != nil {
			t.Fatalf("serial %s: %v", mv.Name, err)
		}
		b, err := concStore.Read(mv.Name + ".sct")
		if err != nil {
			t.Fatalf("concurrent %s: %v", mv.Name, err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s differs between serial and concurrent runs (%d vs %d bytes)", mv.Name, len(a), len(b))
		}
	}
	if len(concRes.Nodes) != len(serialRes.Nodes) {
		t.Fatalf("node metrics count differs: %d vs %d", len(concRes.Nodes), len(serialRes.Nodes))
	}
}

func TestObserverEventStream(t *testing.T) {
	store := sc.NewMemStore()
	baseTables(t, store)
	var mu sync.Mutex
	counts := map[sc.EventKind]int{}
	watch := sc.ObserverFunc(func(e sc.Event) {
		mu.Lock()
		counts[e.Kind]++
		mu.Unlock()
	})
	ref, err := sc.New(chainMVs(), store,
		sc.WithMemory(64<<20),
		sc.WithObserver(watch),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := ref.Refresh(ctx); err != nil { // baseline + optimize
		t.Fatal(err)
	}
	if _, err := ref.Run(ctx); err != nil { // flagged run
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if counts[sc.NodeStart] != 8 || counts[sc.NodeDone] != 8 { // 4 nodes × 2 runs
		t.Fatalf("node events: %d starts, %d dones, want 8 each", counts[sc.NodeStart], counts[sc.NodeDone])
	}
	if counts[sc.Materialized] != 8 {
		t.Fatalf("materialized events = %d, want 8", counts[sc.Materialized])
	}
	if counts[sc.IterationDone] == 0 {
		t.Fatal("no IterationDone events from Optimize")
	}
	if counts[sc.Evicted] == 0 {
		t.Fatal("no Evicted events despite flagged run")
	}
	if counts[sc.MemoryHighWater] == 0 {
		t.Fatal("no MemoryHighWater events despite flagged run")
	}
}

func TestRefresherSimulatePredictsFromMetadata(t *testing.T) {
	store := sc.NewMemStore()
	baseTables(t, store)
	ref, err := sc.New(chainMVs(), store, sc.WithMemory(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := ref.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	simRes, err := ref.Simulate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Total <= 0 {
		t.Fatalf("simulated total = %v", simRes.Total)
	}
	if simRes.ReadSeconds <= 0 {
		t.Fatalf("simulated read time = %v; base-table bytes not modelled", simRes.ReadSeconds)
	}
	// Simulation honors cancellation too.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := ref.Simulate(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("simulate err = %v, want context.Canceled", err)
	}
}

func TestRefresherDeadline(t *testing.T) {
	store := sc.NewMemStore()
	baseTables(t, store)
	// A store so slow the 4-node chain cannot finish inside the deadline.
	slow := sc.NewThrottledStore(store, 1e6, 1e6, 5*time.Millisecond)
	ref, err := sc.New(chainMVs(), slow)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := ref.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
