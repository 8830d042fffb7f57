package exec

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/storage"
)

// dispatchFixture is pipelineFixture's sales table under five nodes: three
// short independent ones, then the head of the longest path and its child,
// last in plan order. seconds is what each node is taken to cost.
//
//	sales ─→ a, b, c
//	      └→ head ─→ tail
type dispatchFixture struct {
	w       *Workload
	store   storage.Store
	g       *dag.Graph
	plan    *core.Plan
	seconds []float64
}

func newDispatchFixture(t *testing.T) *dispatchFixture {
	t.Helper()
	w, store := pipelineFixture(t)
	w.Nodes = []NodeSpec{
		{Name: "a", SQL: `SELECT day FROM sales`},
		{Name: "b", SQL: `SELECT item FROM sales`},
		{Name: "c", SQL: `SELECT amount FROM sales`},
		{Name: "head", SQL: `SELECT day, SUM(amount) AS revenue FROM sales GROUP BY day`},
		{Name: "tail", SQL: `SELECT COUNT(*) AS days FROM head`},
	}
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	return &dispatchFixture{
		w: w, store: store, g: g,
		plan:    core.NewPlan([]dag.NodeID{0, 1, 2, 3, 4}),
		seconds: []float64{0.1, 0.1, 0.1, 0.5, 0.5},
	}
}

// run executes the fixture's plan on k tokens under rank and returns the
// nodes in the order they started.
func (f *dispatchFixture) run(t *testing.T, k int, rank []int) []string {
	t.Helper()
	starts := newStartOrder(max(k, 1))
	ctl := &Controller{Store: f.store, Mem: memcat.New(1 << 20), Obs: starts, Concurrency: k, Rank: rank}
	if _, err := ctl.Run(context.Background(), f.w, f.g, f.plan); err != nil {
		t.Fatal(err)
	}
	starts.mu.Lock()
	defer starts.mu.Unlock()
	return starts.started
}

// startOrder records the nodes in the order they start. The first round
// starts wait for one another, so no node of the first dispatch round can
// finish — and free its token for a later dispatch — before every node of
// the round has reported its start.
type startOrder struct {
	mu      sync.Mutex
	started []string
	round   int
	full    chan struct{}
}

func newStartOrder(round int) *startOrder {
	return &startOrder{round: round, full: make(chan struct{})}
}

func (s *startOrder) OnEvent(e obs.Event) {
	if e.Kind != obs.NodeStart {
		return
	}
	s.mu.Lock()
	s.started = append(s.started, e.Node)
	n := len(s.started)
	if n == s.round {
		close(s.full)
	}
	s.mu.Unlock()
	if n <= s.round {
		<-s.full
	}
}

// TestDispatchSerialKeepsPlanOrder: on one token the plan's order is the
// dispatch order whatever Rank says — the serial schedule the plan's peak
// memory was proved on.
func TestDispatchSerialKeepsPlanOrder(t *testing.T) {
	f := newDispatchFixture(t)
	want := []string{"a", "b", "c", "head", "tail"}
	ranks := map[string][]int{
		"no rank":      nil,
		"longest path": core.DispatchRank(f.g, f.plan.Order, f.seconds),
		"reversed":     {4, 3, 2, 1, 0},
		"all tied":     {0, 0, 0, 0, 0},
	}
	for _, k := range []int{0, 1} {
		for name, rank := range ranks {
			if got := f.run(t, k, rank); !reflect.DeepEqual(got, want) {
				t.Errorf("concurrency %d, %s: started %v, want plan order %v", k, name, got, want)
			}
		}
	}
}

// TestDispatchLongestPathFirst: on two tokens the head of the longest path
// is in the first dispatch round although the plan runs it fourth; with no
// rank the round is the plan's first two nodes.
func TestDispatchLongestPathFirst(t *testing.T) {
	f := newDispatchFixture(t)
	rank := core.DispatchRank(f.g, f.plan.Order, f.seconds)
	if rank[f.g.Lookup("head")] != 0 {
		t.Fatalf("rank = %v: head is not first", rank)
	}
	for name, tc := range map[string]struct {
		rank  []int
		round []string
	}{
		"longest path": {rank, []string{"a", "head"}},
		"no rank":      {nil, []string{"a", "b"}},
	} {
		got := f.run(t, 2, tc.rank)
		if len(got) != len(f.w.Nodes) {
			t.Fatalf("%s: started %v", name, got)
		}
		round := slices.Sorted(slices.Values(got[:2]))
		if !reflect.DeepEqual(round, tc.round) {
			t.Errorf("%s: first round started %v, want %v", name, got[:2], tc.round)
		}
	}
}

// TestDispatchRejectsShortRank: a rank that does not name every node is a
// caller's bug, caught before anything runs.
func TestDispatchRejectsShortRank(t *testing.T) {
	f := newDispatchFixture(t)
	ctl := &Controller{Store: f.store, Concurrency: 2, Rank: []int{0, 1}}
	if res, err := ctl.Run(context.Background(), f.w, f.g, f.plan); err == nil || res != nil {
		t.Fatalf("Run = %v, %v", res, err)
	}
}
