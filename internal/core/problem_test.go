package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/shortcircuit-db/sc/internal/dag"
)

const gb = int64(1) << 30

// figure7 builds the toy example of Figure 7 in the paper: six nodes, where
// order τ2 allows flagging both 100GB nodes while τ1 does not. Speedup
// scores equal sizes in GB.
func figure7() *Problem {
	g := dag.New()
	v1 := g.AddNode("v1")
	v2 := g.AddNode("v2")
	v3 := g.AddNode("v3")
	v4 := g.AddNode("v4")
	g.AddNode("v5")
	g.AddNode("v6")
	g.MustAddEdge(v1, v2)
	g.MustAddEdge(v1, v4)
	g.MustAddEdge(v2, v3)
	g.MustAddEdge(v3, 4)
	return &Problem{
		G:      g,
		Sizes:  []int64{100 * gb, 10 * gb, 100 * gb, 10 * gb, 10 * gb, 10 * gb},
		Scores: []float64{100, 10, 100, 10, 10, 10},
		Memory: 100 * gb,
	}
}

var (
	tau1 = []dag.NodeID{0, 1, 2, 3, 4, 5}
	tau2 = []dag.NodeID{0, 1, 3, 2, 4, 5}
)

func TestValidate(t *testing.T) {
	p := figure7()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.Sizes = bad.Sizes[:3]
	if err := bad.Validate(); err == nil {
		t.Fatal("short sizes accepted")
	}
	bad2 := figure7()
	bad2.Scores[0] = math.NaN()
	if err := bad2.Validate(); err == nil {
		t.Fatal("NaN score accepted")
	}
	bad3 := figure7()
	bad3.Memory = -1
	if err := bad3.Validate(); err == nil {
		t.Fatal("negative memory accepted")
	}
	bad4 := figure7()
	bad4.Sizes[2] = -5
	if err := bad4.Validate(); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestPlanValidate(t *testing.T) {
	p := figure7()
	pl := NewPlan(tau2)
	if err := pl.Validate(p); err != nil {
		t.Fatal(err)
	}
	badOrder := NewPlan([]dag.NodeID{1, 0, 2, 3, 4, 5})
	if err := badOrder.Validate(p); err == nil {
		t.Fatal("non-topological order accepted")
	}
	short := &Plan{Order: tau2, Flagged: make([]bool, 3)}
	if err := short.Validate(p); err == nil {
		t.Fatal("short flagged slice accepted")
	}
}

func TestReleasePositions(t *testing.T) {
	p := figure7()
	rel := ReleasePositions(p.G, tau2)
	// In τ2 = [v1 v2 v4 v3 v5 v6]: v1's last child (v4) runs at step 2,
	// v2's child v3 at step 3, v3's child v5 at step 4; childless nodes
	// release at their own step.
	want := []int{2, 3, 4, 2, 4, 5}
	for i := range want {
		if rel[i] != want[i] {
			t.Fatalf("rel = %v, want %v", rel, want)
		}
	}
}

func TestFigure7PeakMemory(t *testing.T) {
	p := figure7()

	// Under τ1, flagging both v1 and v3 overlaps: peak 200GB.
	pl := NewPlan(tau1)
	pl.Flagged[0] = true
	pl.Flagged[2] = true
	if peak := PeakMemoryUsage(p, pl); peak != 200*gb {
		t.Fatalf("τ1 {v1,v3} peak = %d GB, want 200", peak/gb)
	}
	if Feasible(p, pl) {
		t.Fatal("τ1 {v1,v3} should be infeasible")
	}

	// Under τ2, v1 is released after v4 (step 2) before v3 runs (step 3):
	// flagging v1, v3 and v6 peaks at exactly 100GB.
	pl2 := NewPlan(tau2)
	pl2.Flagged[0] = true
	pl2.Flagged[2] = true
	pl2.Flagged[5] = true
	if peak := PeakMemoryUsage(p, pl2); peak != 100*gb {
		t.Fatalf("τ2 {v1,v3,v6} peak = %d GB, want 100", peak/gb)
	}
	if !Feasible(p, pl2) {
		t.Fatal("τ2 {v1,v3,v6} should be feasible")
	}
	if got := pl2.TotalScore(p); got != 210 {
		t.Fatalf("score = %v, want 210", got)
	}

	// The τ1 fallback from the paper: v1, v5, v6 with score 120.
	pl3 := NewPlan(tau1)
	pl3.Flagged[0] = true
	pl3.Flagged[4] = true
	pl3.Flagged[5] = true
	if !Feasible(p, pl3) {
		t.Fatal("τ1 {v1,v5,v6} should be feasible")
	}
	if got := pl3.TotalScore(p); got != 120 {
		t.Fatalf("score = %v, want 120", got)
	}
}

func TestMemoryTimelineMatchesPeak(t *testing.T) {
	p := figure7()
	pl := NewPlan(tau2)
	pl.Flagged[0] = true
	pl.Flagged[2] = true
	tl := MemoryTimeline(p, pl)
	var maxTL int64
	for _, v := range tl {
		if v > maxTL {
			maxTL = v
		}
	}
	if maxTL != PeakMemoryUsage(p, pl) {
		t.Fatalf("timeline max %d != peak %d", maxTL, PeakMemoryUsage(p, pl))
	}
	// v1 resident at steps 0..2, v3 at steps 3..4.
	want := []int64{100 * gb, 100 * gb, 100 * gb, 100 * gb, 100 * gb, 0}
	for i := range want {
		if tl[i] != want[i] {
			t.Fatalf("timeline = %v, want %v", tl, want)
		}
	}
}

func TestAverageMemoryUsagePrefersEarlyRelease(t *testing.T) {
	p := figure7()
	flag := func(order []dag.NodeID) *Plan {
		pl := NewPlan(order)
		pl.Flagged[0] = true
		return pl
	}
	// τ2 executes v4 (v1's last child) earlier, so v1 is released sooner.
	a1 := AverageMemoryUsage(p, flag(tau1))
	a2 := AverageMemoryUsage(p, flag(tau2))
	if a2 >= a1 {
		t.Fatalf("avg mem τ2 (%v) should be < τ1 (%v)", a2, a1)
	}
}

func TestEmptyFlaggedUsesNoMemory(t *testing.T) {
	p := figure7()
	pl := NewPlan(tau1)
	if PeakMemoryUsage(p, pl) != 0 || AverageMemoryUsage(p, pl) != 0 {
		t.Fatal("empty flagged set should use no memory")
	}
	if !Feasible(p, pl) {
		t.Fatal("empty flagged set should always be feasible")
	}
}

func TestGetConstraintsFigure7(t *testing.T) {
	p := figure7()
	cs := GetConstraints(p, tau1)
	if len(cs.Excluded) != 0 {
		t.Fatalf("unexpected exclusions: %v", cs.Excluded)
	}
	// Under τ1, v1 and v3 coexist (steps 2..3): some retained set must
	// contain both.
	found := false
	for _, set := range cs.Sets {
		has1, has3 := false, false
		for _, id := range set {
			if id == 0 {
				has1 = true
			}
			if id == 2 {
				has3 = true
			}
		}
		if has1 && has3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no constraint set contains v1 and v3: %v", cs.Sets)
	}
}

func TestGetConstraintsExcludesOversizedAndZeroScore(t *testing.T) {
	p := figure7()
	p.Sizes[0] = 200 * gb // larger than M: excluded
	p.Scores[3] = 0       // zero score: excluded
	p.Scores[5] = -2      // negative score: excluded
	cs := GetConstraints(p, tau1)
	if len(cs.Excluded) != 3 {
		t.Fatalf("Excluded = %v, want v1,v4,v6", cs.Excluded)
	}
	for _, set := range cs.Sets {
		for _, id := range set {
			if id == 0 || id == 3 || id == 5 {
				t.Fatalf("excluded node %d appears in constraint set", id)
			}
		}
	}
}

func TestGetConstraintsTrivialSetsDropped(t *testing.T) {
	p := figure7()
	p.Memory = 500 * gb // everything fits at once: all sets trivial
	cs := GetConstraints(p, tau1)
	if len(cs.Sets) != 0 {
		t.Fatalf("expected no binding constraints, got %v", cs.Sets)
	}
	if len(cs.Free) != p.G.Len() {
		t.Fatalf("all nodes should be free, got %v", cs.Free)
	}
}

func TestGetConstraintsMaximalOnly(t *testing.T) {
	p := figure7()
	cs := GetConstraints(p, tau1)
	for i, a := range cs.Sets {
		for j, b := range cs.Sets {
			if i == j || len(a) >= len(b) {
				continue
			}
			if isSubset(a, b) {
				t.Fatalf("set %v is a subset of %v", a, b)
			}
		}
	}
}

func isSubset(a, b []dag.NodeID) bool {
	m := make(map[dag.NodeID]bool, len(b))
	for _, id := range b {
		m[id] = true
	}
	for _, id := range a {
		if !m[id] {
			return false
		}
	}
	return true
}

func randomProblem(rng *rand.Rand) (*Problem, []dag.NodeID) {
	g := dag.New()
	n := 3 + rng.Intn(20)
	for i := 0; i < n; i++ {
		g.AddNode("n")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(4) == 0 {
				g.MustAddEdge(dag.NodeID(i), dag.NodeID(j))
			}
		}
	}
	sizes := make([]int64, n)
	scores := make([]float64, n)
	for i := range sizes {
		sizes[i] = int64(rng.Intn(100)) + 1
		scores[i] = float64(rng.Intn(50))
	}
	p := &Problem{G: g, Sizes: sizes, Scores: scores, Memory: int64(rng.Intn(200)) + 50}
	order, err := g.TopoSort()
	if err != nil {
		panic(err)
	}
	return p, order
}

// Property: any flagged selection that keeps every constraint set's total
// within M is feasible under PeakMemoryUsage, and vice versa (for nodes not
// excluded). This ties GetConstraints to the ground-truth memory model.
func TestConstraintSetsCharacterizeFeasibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, order := randomProblem(rng)
		cs := GetConstraints(p, order)
		// Build a random candidate selection from non-excluded nodes.
		pl := NewPlan(order)
		excluded := make(map[dag.NodeID]bool)
		for _, id := range cs.Excluded {
			excluded[id] = true
		}
		for i := 0; i < p.G.Len(); i++ {
			if !excluded[dag.NodeID(i)] && rng.Intn(2) == 0 {
				pl.Flagged[i] = true
			}
		}
		// Check: satisfying all retained sets <=> peak ≤ M.
		satisfied := true
		for _, set := range cs.Sets {
			var total int64
			for _, id := range set {
				if pl.Flagged[id] {
					total += p.Sizes[id]
				}
			}
			if total > p.Memory {
				satisfied = false
				break
			}
		}
		feasible := Feasible(p, pl)
		return satisfied == feasible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPeakNeverBelowLargestFlaggedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, order := randomProblem(rng)
		pl := NewPlan(order)
		var largest int64
		for i := 0; i < p.G.Len(); i++ {
			if rng.Intn(2) == 0 {
				pl.Flagged[i] = true
				if p.Sizes[i] > largest {
					largest = p.Sizes[i]
				}
			}
		}
		return PeakMemoryUsage(p, pl) >= largest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFlaggedIDsAndSizes(t *testing.T) {
	p := figure7()
	pl := NewPlan(tau2)
	pl.Flagged[0] = true
	pl.Flagged[2] = true
	ids := pl.FlaggedIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Fatalf("FlaggedIDs = %v", ids)
	}
	if pl.TotalFlaggedSize(p) != 200*gb {
		t.Fatalf("TotalFlaggedSize = %d", pl.TotalFlaggedSize(p))
	}
	c := pl.Clone()
	c.Flagged[0] = false
	if !pl.Flagged[0] {
		t.Fatal("Clone shares Flagged storage")
	}
}

// residentAt is the memory model spelled out step by step, with no form in
// it: the bytes of the flagged nodes resident at step t, each charged
// size(i). It is what PeakMemoryUsage and MemoryTimeline computed before a
// plan could name a form, and what they are compared against below.
func residentAt(p *Problem, pl *Plan, size func(i int) int64, t int) int64 {
	pos := Positions(pl.Order)
	rel := ReleasePositions(p.G, pl.Order)
	var sum int64
	for i := range pl.Flagged {
		if pl.Flagged[i] && pos[i] <= t && t <= rel[i] {
			sum += size(i)
		}
	}
	return sum
}

// Property: a plan that marks no node serialized measures the same under
// every spelling of "no forms" — Forms nil, Forms all Rows, and either one
// on a problem that does or does not offer serialized sizes — and all of
// them equal the form-free model. A plan that does mark nodes serialized
// charges exactly those nodes their serialized size.
func TestFormAwareMemoryMatchesFormFreeModelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, order := randomProblem(rng)
		n := p.G.Len()
		pl := NewPlan(order)
		for i := range pl.Flagged {
			pl.Flagged[i] = rng.Intn(2) == 0
		}
		rows := func(i int) int64 { return p.Sizes[i] }
		wantPeak := int64(0)
		wantTL := make([]int64, n)
		for s := 0; s < n; s++ {
			wantTL[s] = residentAt(p, pl, rows, s)
			if wantTL[s] > wantPeak {
				wantPeak = wantTL[s]
			}
		}
		offered := *p
		offered.SerializedSizes = make([]int64, n)
		for i := range offered.SerializedSizes {
			offered.SerializedSizes[i] = int64(rng.Intn(int(p.Sizes[i]))) // smaller than the rows
		}
		allRows := pl.Clone()
		allRows.Forms = make([]Form, n)
		for _, prob := range []*Problem{p, &offered} {
			for _, plan := range []*Plan{pl, allRows} {
				if PeakMemoryUsage(prob, plan) != wantPeak || Feasible(prob, plan) != (wantPeak <= prob.Memory) {
					return false
				}
				for s, v := range MemoryTimeline(prob, plan) {
					if v != wantTL[s] {
						return false
					}
				}
			}
		}

		ser := pl.Clone()
		ser.Forms = make([]Form, n)
		for i := range ser.Forms {
			if ser.Flagged[i] && rng.Intn(2) == 0 {
				ser.Forms[i] = Serialized
			}
		}
		charged := func(i int) int64 {
			if ser.Forms[i] == Serialized {
				return offered.SerializedSizes[i]
			}
			return offered.Sizes[i]
		}
		var peak, total int64
		tl := MemoryTimeline(&offered, ser)
		for s := 0; s < n; s++ {
			want := residentAt(&offered, ser, charged, s)
			if tl[s] != want {
				return false
			}
			if want > peak {
				peak = want
			}
		}
		for i := range ser.Flagged {
			if ser.Flagged[i] {
				total += charged(i)
			}
		}
		return PeakMemoryUsage(&offered, ser) == peak && ser.TotalFlaggedSize(&offered) == total &&
			ser.Validate(&offered) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateForms(t *testing.T) {
	p := figure7()
	p.SerializedSizes = []int64{40 * gb, 4 * gb, 40 * gb, 4 * gb, 4 * gb, 4 * gb}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	short := *p
	short.SerializedSizes = short.SerializedSizes[:2]
	if err := short.Validate(); err == nil {
		t.Fatal("short serialized sizes accepted")
	}

	pl := NewPlan(tau2)
	pl.Flagged[0] = true
	pl.Forms = make([]Form, 6)
	pl.Forms[0] = Serialized
	if err := pl.Validate(p); err != nil {
		t.Fatal(err)
	}
	if got := PeakMemoryUsage(p, pl); got != 40*gb {
		t.Fatalf("serialized v1 peaks at %d, want its 40 GB", got)
	}
	c := pl.Clone()
	c.Forms[0] = Rows
	if pl.Forms[0] != Serialized {
		t.Fatal("Clone shares Forms storage")
	}

	for name, bad := range map[string]func(*Plan){
		"short forms":          func(pl *Plan) { pl.Forms = pl.Forms[:3] },
		"serialized unflagged": func(pl *Plan) { pl.Forms[1] = Serialized },
		"unknown form":         func(pl *Plan) { pl.Forms[0] = Serialized + 1 },
	} {
		b := pl.Clone()
		bad(b)
		if err := b.Validate(p); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := pl.Validate(figure7()); err == nil {
		t.Error("serialized form accepted by a problem that offers none")
	}
}

func TestDispatchRank(t *testing.T) {
	// A fan beside a chain, the fan first in plan order:
	//
	//	f ─→ f1, f2, f3      c1 ─→ c2 ─→ c3
	fanChain := dag.New()
	for _, name := range []string{"f", "f1", "f2", "f3", "c1", "c2", "c3"} {
		fanChain.AddNode(name)
	}
	for _, e := range [][2]dag.NodeID{{0, 1}, {0, 2}, {0, 3}, {4, 5}, {5, 6}} {
		fanChain.MustAddEdge(e[0], e[1])
	}
	fanChainOrder := []dag.NodeID{0, 1, 2, 3, 4, 5, 6}
	pair := dag.New()
	pair.AddNode("a")
	pair.AddNode("b")

	for _, tc := range []struct {
		name    string
		g       *dag.Graph
		order   []dag.NodeID
		seconds []float64
		want    []dag.NodeID // nodes by rank
	}{
		{
			// Bottom levels: c1 3, f 2, c2 2, every sink 1. The chain's head
			// starts first; f ties with c2 and keeps its plan position.
			name: "chain beside a fan", g: fanChain, order: fanChainOrder,
			seconds: []float64{1, 1, 1, 1, 1, 1, 1},
			want:    []dag.NodeID{4, 0, 5, 1, 2, 3, 6},
		},
		{
			name: "a heavy fan outranks the chain", g: fanChain, order: fanChainOrder,
			seconds: []float64{1, 5, 0, 0, 1, 1, 1},
			want:    []dag.NodeID{0, 1, 4, 5, 6, 2, 3},
		},
		{
			name: "equal levels keep plan position", g: pair, order: []dag.NodeID{1, 0},
			seconds: []float64{2, 2},
			want:    []dag.NodeID{1, 0},
		},
		{
			name: "all-zero seconds give plan order", g: fanChain,
			order:   []dag.NodeID{4, 0, 3, 5, 1, 6, 2},
			seconds: make([]float64, 7),
			want:    []dag.NodeID{4, 0, 3, 5, 1, 6, 2},
		},
		{
			name: "negative and NaN seconds count as zero", g: pair, order: []dag.NodeID{1, 0},
			seconds: []float64{-3, math.NaN()},
			want:    []dag.NodeID{1, 0},
		},
	} {
		rank := DispatchRank(tc.g, tc.order, tc.seconds)
		if want := Positions(tc.want); !reflect.DeepEqual(rank, want) {
			t.Errorf("%s: rank = %v, want %v", tc.name, rank, want)
		}
	}

	if rank := DispatchRank(fanChain, []dag.NodeID{1, 0, 2, 3, 4, 5, 6}, make([]float64, 7)); rank != nil {
		t.Errorf("a non-topological order was ranked %v", rank)
	}
	if rank := DispatchRank(fanChain, fanChainOrder[:3], make([]float64, 7)); rank != nil {
		t.Errorf("a short order was ranked %v", rank)
	}
}

// topoBy walks g in Kahn's order, taking at every step the ready node pick
// chooses.
func topoBy(g *dag.Graph, pick func(ready []dag.NodeID) int) []dag.NodeID {
	indeg := make([]int, g.Len())
	var ready []dag.NodeID
	for i := range indeg {
		if indeg[i] = len(g.Parents(dag.NodeID(i))); indeg[i] == 0 {
			ready = append(ready, dag.NodeID(i))
		}
	}
	var order []dag.NodeID
	for len(ready) > 0 {
		k := pick(ready)
		id := ready[k]
		ready = append(ready[:k], ready[k+1:]...)
		order = append(order, id)
		for _, c := range g.Children(id) {
			if indeg[c]--; indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	return order
}

// bottomLevel is the longest path from id to a sink, in seconds clamped at
// zero, by plain recursion.
func bottomLevel(g *dag.Graph, seconds []float64, id dag.NodeID) float64 {
	var below float64
	for _, c := range g.Children(id) {
		below = max(below, bottomLevel(g, seconds, c))
	}
	return below + max(seconds[id], 0)
}

// Property: on random DAGs under a random topological order the rank is a
// permutation; a dispatcher that always pops the ready node of lowest rank
// emits a topological order, and it is exactly the rank order (a parent
// never ranks after its child); bottom levels never rise along it, and
// equal levels keep plan position.
func TestDispatchRankProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := randomProblem(rng)
		g := p.G
		order := topoBy(g, func(ready []dag.NodeID) int { return rng.Intn(len(ready)) })
		seconds := make([]float64, g.Len())
		for i := range seconds {
			// Few distinct values, so ties are common; some not positive.
			seconds[i] = float64(rng.Intn(4) - 1)
		}
		rank := DispatchRank(g, order, seconds)
		if len(rank) != g.Len() {
			return false
		}
		byRank := make([]dag.NodeID, g.Len())
		seen := make([]bool, g.Len())
		for id, r := range rank {
			if r < 0 || r >= g.Len() || seen[r] {
				return false
			}
			seen[r] = true
			byRank[r] = dag.NodeID(id)
		}

		// Pop ready nodes by rank, as the Controller does.
		popped := topoBy(g, func(ready []dag.NodeID) int {
			k := 0
			for j := range ready {
				if rank[ready[j]] < rank[ready[k]] {
					k = j
				}
			}
			return k
		})
		if !g.IsTopological(popped) || !reflect.DeepEqual(popped, byRank) {
			return false
		}

		pos := Positions(order)
		for r := 1; r < len(byRank); r++ {
			prev, cur := bottomLevel(g, seconds, byRank[r-1]), bottomLevel(g, seconds, byRank[r])
			if cur > prev || (cur == prev && pos[byRank[r]] < pos[byRank[r-1]]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
