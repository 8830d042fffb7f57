package opt

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/flagsel"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/order"
	"github.com/shortcircuit-db/sc/internal/testutil"
)

func TestSolveFigure7(t *testing.T) {
	p := testutil.Figure7()
	pl, st, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(p); err != nil {
		t.Fatal(err)
	}
	if !core.Feasible(p, pl) {
		t.Fatal("returned plan infeasible")
	}
	// The single-shot MKP under the initial order already achieves 120
	// (the paper's τ1 optimum); alternation must not do worse.
	if st.Score < 120 {
		t.Fatalf("score = %v, want ≥ 120", st.Score)
	}
	if st.Iterations < 1 || st.StopReason == "" {
		t.Fatalf("bad stats: %+v", st)
	}
}

// Figure 7 built with its nodes added in τ2's order (v1, v2, v4, v3, v5,
// v6): Kahn's smallest-id tie-break then starts the loop from τ2, from which
// alternation reaches the paper's optimum of 210.
func TestSolveStartingFromTau2FindsOptimum(t *testing.T) {
	g := dag.New()
	v1 := g.AddNode("v1")
	v2 := g.AddNode("v2")
	v4 := g.AddNode("v4")
	v3 := g.AddNode("v3")
	v5 := g.AddNode("v5")
	g.AddNode("v6")
	g.MustAddEdge(v1, v2)
	g.MustAddEdge(v1, v4)
	g.MustAddEdge(v2, v3)
	g.MustAddEdge(v3, v5)
	gb := testutil.GB
	p := &core.Problem{
		G:      g,
		Sizes:  []int64{100 * gb, 10 * gb, 10 * gb, 100 * gb, 10 * gb, 10 * gb},
		Scores: []float64{100, 10, 10, 100, 10, 10},
		Memory: 100 * gb,
	}
	pl, st, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Score != 210 {
		t.Fatalf("score = %v, want 210 (flagged %v)", st.Score, pl.FlaggedIDs())
	}
}

func TestSolveRejectsInvalidProblem(t *testing.T) {
	p := testutil.Figure7()
	p.Sizes = p.Sizes[:2]
	if _, _, err := Solve(context.Background(), p, Options{}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func TestSolveEmptyGraph(t *testing.T) {
	p := &core.Problem{G: dag.New(), Memory: 100}
	pl, st, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Order) != 0 || st.Score != 0 {
		t.Fatalf("empty graph: %+v %+v", pl, st)
	}
}

func TestSolveZeroScoresReturnsEmptyFlagged(t *testing.T) {
	p := testutil.Figure7()
	for i := range p.Scores {
		p.Scores[i] = 0
	}
	pl, st, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.FlaggedIDs()) != 0 {
		t.Fatalf("flagged %v with all-zero scores", pl.FlaggedIDs())
	}
	if st.StopReason != "no flagged-set improvement" {
		t.Fatalf("stop reason = %q", st.StopReason)
	}
}

func TestSolveFeasibleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := testutil.RandomProblem(rng, 25)
		pl, _, err := Solve(context.Background(), p, Options{})
		if err != nil {
			return false
		}
		return core.Feasible(p, pl) && p.G.IsTopological(pl.Order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Alternating optimization must never end below the single-shot MKP on the
// initial order: the first iteration *is* that solution.
func TestSolveAtLeastSingleShotMKPProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := testutil.RandomProblem(rng, 25)
		initOrd, err := p.G.TopoSort()
		if err != nil {
			return false
		}
		oneShot, err := flagsel.MKP{}.Select(p, initOrd)
		if err != nil {
			return false
		}
		pl, _, err := Solve(context.Background(), p, Options{})
		if err != nil {
			return false
		}
		return pl.TotalScore(p) >= oneShot.TotalScore(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveWithAllMethodCombos(t *testing.T) {
	selectors := []flagsel.Selector{flagsel.MKP{}, flagsel.Greedy{}, flagsel.Random{Seed: 3}, flagsel.Ratio{}}
	orderers := []order.Orderer{order.MADFS{}, order.DFS{Seed: 3}, order.Kahn{}, order.SA{Seed: 3, Iterations: 200}, order.Separator{}}
	p := testutil.Figure7()
	for _, s := range selectors {
		for _, o := range orderers {
			pl, st, err := Solve(context.Background(), p, Options{Selector: s, Orderer: o})
			if err != nil {
				t.Fatalf("%s+%s: %v", s.Name(), o.Name(), err)
			}
			if !core.Feasible(p, pl) {
				t.Fatalf("%s+%s: infeasible plan", s.Name(), o.Name())
			}
			if st.Score < 0 {
				t.Fatalf("%s+%s: negative score", s.Name(), o.Name())
			}
		}
	}
}

// A loop cut at its cap reports the iterations it ran, not one more.
func TestSolveIterationLimit(t *testing.T) {
	p := testutil.RandomProblem(rand.New(rand.NewSource(1)), 20)
	var events int
	o := obs.Func(func(e obs.Event) {
		if e.Kind == obs.IterationDone {
			events++
		}
	})
	_, st, err := solve(context.Background(), p, Options{Observer: o}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 1 || st.StopReason != "iteration limit" || events != 1 {
		t.Fatalf("Iterations = %d, StopReason = %q, %d IterationDone events; want 1, iteration limit, 1",
			st.Iterations, st.StopReason, events)
	}
}

func TestStatsPopulated(t *testing.T) {
	p := testutil.Figure7()
	pl, st, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakMemory != core.PeakMemoryUsage(p, pl) {
		t.Fatal("stats peak memory mismatch")
	}
	if st.Score != pl.TotalScore(p) {
		t.Fatal("stats score mismatch")
	}
	if st.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
}

// serializedHalf offers every node of p a serialized form of a seeded
// fraction of its rows; some nodes get none smaller.
func serializedHalf(rng *rand.Rand, p *core.Problem) *core.Problem {
	q := *p
	q.SerializedSizes = make([]int64, len(p.Sizes))
	for i, s := range p.Sizes {
		q.SerializedSizes[i] = s
		if rng.Intn(4) > 0 {
			q.SerializedSizes[i] = s * int64(1+rng.Intn(3)) / 4
		}
	}
	return &q
}

// Property: offering the serialized form changes nothing the alternating
// loop decided — same order, every node it flagged still flagged as rows —
// and what the second chance adds is feasible, valid, only ever a node with a
// positive score and a smaller form, and maximal: no node it passed over
// would still fit. Stats describe the returned plan.
func TestSolveSecondChanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := testutil.RandomProblem(rng, 25)
		p := serializedHalf(rng, base)
		want, wantSt, err := Solve(context.Background(), base, Options{})
		if err != nil || want.Forms != nil {
			return false
		}
		got, st, err := Solve(context.Background(), p, Options{})
		if err != nil || got.Validate(p) != nil || !core.Feasible(p, got) {
			return false
		}
		if st.Iterations != wantSt.Iterations || st.PeakMemory != core.PeakMemoryUsage(p, got) || st.Score != got.TotalScore(p) {
			return false
		}
		for i := range want.Order {
			if got.Order[i] != want.Order[i] {
				return false
			}
		}
		promoted := 0
		for i := range want.Flagged {
			id := dag.NodeID(i)
			switch {
			case want.Flagged[i]:
				if !got.Flagged[i] || got.FormOf(id) != core.Rows {
					return false
				}
			case got.Flagged[i]:
				promoted++
				if got.FormOf(id) != core.Serialized || p.Scores[i] <= 0 || p.SerializedSizes[i] >= p.Sizes[i] {
					return false
				}
			case p.Scores[i] > 0 && p.SerializedSizes[i] < p.Sizes[i]:
				probe := got.Clone()
				if probe.Forms == nil {
					probe.Forms = make([]core.Form, len(probe.Flagged))
				}
				probe.Flagged[i], probe.Forms[i] = true, core.Serialized
				if core.Feasible(p, probe) {
					return false
				}
			}
		}
		return (promoted == 0) == (got.Forms == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The second chance goes best score first, and to the node earlier in the
// plan when scores tie: three independent nodes whose rows the budget cannot
// hold, with room for two of their serialized forms.
func TestSolveSecondChanceOrder(t *testing.T) {
	g := dag.New()
	g.AddNode("a")
	g.AddNode("b")
	g.AddNode("c")
	sink := g.AddNode("sink")
	for i := 0; i < 3; i++ {
		g.MustAddEdge(dag.NodeID(i), sink)
	}
	p := &core.Problem{
		G:               g,
		Sizes:           []int64{100, 100, 100, 1},
		SerializedSizes: []int64{30, 30, 30, 1},
		Memory:          70,
	}
	for _, tc := range []struct {
		scores []float64
		want   []dag.NodeID
	}{
		{[]float64{1, 2, 3, 0}, []dag.NodeID{1, 2}},
		{[]float64{5, 2, 3, 0}, []dag.NodeID{0, 2}},
		{[]float64{2, 2, 2, 0}, []dag.NodeID{0, 1}}, // tie: plan position
	} {
		p.Scores = tc.scores
		pl, _, err := Solve(context.Background(), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := pl.FlaggedIDs()
		if len(got) != 2 || got[0] != tc.want[0] || got[1] != tc.want[1] {
			t.Errorf("scores %v: flagged %v, want %v", tc.scores, got, tc.want)
		}
		for _, id := range got {
			if pl.FormOf(id) != core.Serialized {
				t.Errorf("scores %v: node %d kept as %v", tc.scores, id, pl.FormOf(id))
			}
		}
	}
}
