package sc_test

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	sc "github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/flagsel"
	"github.com/shortcircuit-db/sc/internal/opt"
	"github.com/shortcircuit-db/sc/internal/order"
	"github.com/shortcircuit-db/sc/internal/table"
)

const gb = int64(1) << 30

func figure7Builder() (*sc.GraphBuilder, []sc.NodeID) {
	b := sc.NewGraphBuilder()
	var ids []sc.NodeID
	sizes := []int64{100 * gb, 10 * gb, 100 * gb, 10 * gb, 10 * gb, 10 * gb}
	scores := []float64{100, 10, 100, 10, 10, 10}
	for i, name := range []string{"v1", "v2", "v3", "v4", "v5", "v6"} {
		ids = append(ids, b.Node(name, sizes[i], scores[i]))
	}
	mustEdge := func(p, c sc.NodeID) {
		if err := b.Edge(p, c); err != nil {
			panic(err)
		}
	}
	mustEdge(ids[0], ids[1])
	mustEdge(ids[0], ids[3])
	mustEdge(ids[1], ids[2])
	mustEdge(ids[2], ids[4])
	return b, ids
}

func TestOptimizePublicAPI(t *testing.T) {
	b, _ := figure7Builder()
	p := b.Problem(100 * gb)
	plan, stats, err := sc.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Feasible(p, plan) {
		t.Fatal("infeasible plan")
	}
	if stats.Score < 120 {
		t.Fatalf("score = %v, want ≥ 120", stats.Score)
	}
	if sc.PeakMemory(p, plan) > p.Memory {
		t.Fatal("peak above budget")
	}
}

// sc.Solve takes no strategy: it must select the paper's algorithms,
// SimplifiedMKP for S/C Opt Nodes and MA-DFS for S/C Opt Order.
func TestSolveAlgorithmSelection(t *testing.T) {
	b, _ := figure7Builder()
	for _, memory := range []int64{10 * gb, 100 * gb, 150 * gb, 300 * gb} {
		p := b.Problem(memory)
		plan, _, err := sc.Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := opt.Solve(context.Background(), p,
			opt.Options{Selector: flagsel.MKP{}, Orderer: order.MADFS{}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan, want) {
			t.Fatalf("memory %d: sc.Solve = %+v, want MKP+MA-DFS's %+v", memory, plan, want)
		}
		if !sc.Feasible(p, plan) {
			t.Fatalf("memory %d: infeasible", memory)
		}
	}
}

func TestEstimateScores(t *testing.T) {
	b, _ := figure7Builder()
	p := b.Problem(100 * gb)
	sc.EstimateScores(p, sc.PaperProfile())
	for i, s := range p.Scores {
		if s < 0 {
			t.Fatalf("score %d negative", i)
		}
	}
	// v1 (100GB, two children) must score far above v6 (10GB, childless).
	if p.Scores[0] <= p.Scores[5] {
		t.Fatalf("scores: v1 %v <= v6 %v", p.Scores[0], p.Scores[5])
	}
}

func baseTables(t *testing.T, store sc.Store) {
	t.Helper()
	events := table.New(table.NewSchema(
		table.Column{Name: "user_id", Type: table.Int},
		table.Column{Name: "kind", Type: table.Str},
		table.Column{Name: "value", Type: table.Float},
	))
	kinds := []string{"view", "click", "buy"}
	for i := 0; i < 600; i++ {
		if err := events.AppendRow(
			table.IntValue(int64(i%37)),
			table.StrValue(kinds[i%3]),
			table.FloatValue(float64(i%100)),
		); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.SaveTable(store, "events", events); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerEndToEnd(t *testing.T) {
	store := sc.NewMemStore()
	baseTables(t, store)
	mvs := []sc.MV{
		{Name: "by_user", SQL: `SELECT user_id, SUM(value) AS total, COUNT(*) AS n FROM events GROUP BY user_id`},
		{Name: "heavy_users", SQL: `SELECT user_id, total FROM by_user WHERE total > 500 ORDER BY total DESC`},
		{Name: "user_count", SQL: `SELECT COUNT(*) AS users FROM by_user`},
	}
	ctx := context.Background()
	ref, err := sc.New(mvs, store, sc.WithMemory(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Graph().Len() != 3 {
		t.Fatalf("graph nodes = %d", ref.Graph().Len())
	}
	// Baseline run.
	baseline, err := ref.RunPlan(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Nodes) != 3 {
		t.Fatalf("executed %d nodes", len(baseline.Nodes))
	}
	// Optimize from observed metrics, re-run.
	p := ref.Problem()
	for _, nm := range baseline.Nodes {
		if got := p.Sizes[p.G.Lookup(nm.Name)]; got != nm.OutputBytes {
			t.Fatalf("%s: problem size %d, observed %d", nm.Name, got, nm.OutputBytes)
		}
	}
	plan, _, err := sc.Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.RunPlan(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Outputs must exist and match the baseline run's.
	for _, name := range []string{"by_user", "heavy_users", "user_count"} {
		got, err := sc.LoadTable(store, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.NumRows() == 0 && name != "heavy_users" {
			t.Fatalf("%s empty", name)
		}
	}
	if res.PeakMemory > 64<<20 {
		t.Fatal("memory budget exceeded")
	}
}

func TestRunnerRejectsBadSQL(t *testing.T) {
	store := sc.NewMemStore()
	if _, err := sc.New([]sc.MV{{Name: "x", SQL: "NOT SQL AT ALL"}}, store); err == nil {
		t.Fatal("bad SQL accepted")
	}
}

// TestRunPlanRejectsShortFlagged: a plan built by hand with no Flagged slice
// is an error, not an index out of range on a worker goroutine.
func TestRunPlanRejectsShortFlagged(t *testing.T) {
	store := sc.NewMemStore()
	baseTables(t, store)
	mvs := []sc.MV{{Name: "agg", SQL: `SELECT kind, COUNT(*) AS n FROM events GROUP BY kind`}}
	ref, err := sc.New(mvs, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.RunPlan(context.Background(), &sc.Plan{Order: []sc.NodeID{0}}); err == nil {
		t.Fatal("a plan with 0 flags for 1 node was accepted")
	}
}

func TestThrottledStoreSlowsRuns(t *testing.T) {
	fast := sc.NewMemStore()
	baseTables(t, fast)
	slow := sc.NewThrottledStore(fast, 2e6, 2e6, time.Millisecond)
	mvs := []sc.MV{{Name: "agg", SQL: `SELECT kind, COUNT(*) AS n FROM events GROUP BY kind`}}
	ref, err := sc.New(mvs, slow)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("throttle had no effect")
	}
}

func TestSimulatePublicAPI(t *testing.T) {
	b, _ := figure7Builder()
	p := b.Problem(100 * gb)
	plan, _, err := sc.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	w := &sc.SimWorkload{G: p.G}
	for i := range p.Sizes {
		w.Nodes = append(w.Nodes, sc.SimNode{
			Name:        p.G.Name(sc.NodeID(i)),
			OutputBytes: p.Sizes[i], ComputeSeconds: 1,
		})
	}
	res, err := sc.SimulatePlan(context.Background(), w, plan, sc.SimConfig{Device: sc.PaperProfile(), Memory: p.Memory})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 || int64(res.PeakMemory) > p.Memory {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestGraphBuilderEdgeValidation(t *testing.T) {
	b := sc.NewGraphBuilder()
	a := b.Node("a", 1, 1)
	if err := b.Edge(a, a); err == nil {
		t.Fatal("self edge accepted")
	}
	if err := b.Edge(a, 99); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestRunnerSQLErrorMentionsNode(t *testing.T) {
	store := sc.NewMemStore()
	baseTables(t, store)
	mvs := []sc.MV{{Name: "broken", SQL: `SELECT missing_col FROM events`}}
	ref, err := sc.New(mvs, store)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ref.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("err = %v", err)
	}
}
