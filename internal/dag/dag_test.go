package dag

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.MustAddEdge(a, b)
	g.MustAddEdge(a, c)
	g.MustAddEdge(b, d)
	g.MustAddEdge(c, d)
	return g
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		if id := g.AddNode("n"); int(id) != i {
			t.Fatalf("node %d got ID %d", i, id)
		}
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
}

func TestAddEdgeRejectsSelfEdge(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	if err := g.AddEdge(a, a); err == nil {
		t.Fatal("self-edge accepted")
	}
}

func TestAddEdgeRejectsUnknownNodes(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	if err := g.AddEdge(a, 99); err == nil {
		t.Fatal("edge to unknown node accepted")
	}
	if err := g.AddEdge(-1, a); err == nil {
		t.Fatal("edge from invalid node accepted")
	}
}

func TestAddEdgeIgnoresDuplicates(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.MustAddEdge(a, b)
	g.MustAddEdge(a, b)
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if len(g.Children(a)) != 1 || len(g.Parents(b)) != 1 {
		t.Fatal("duplicate edge leaked into adjacency lists")
	}
}

func TestTopoSortDiamond(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTopological(order) {
		t.Fatalf("order %v is not topological", order)
	}
	if order[0] != 0 || order[3] != 3 {
		t.Fatalf("order %v: want a first and d last", order)
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	g.MustAddEdge(c, a)
	if _, err := g.TopoSort(); err != ErrCycle {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
	if g.IsAcyclic() {
		t.Fatal("IsAcyclic = true for a cycle")
	}
}

func TestIsTopologicalRejectsBadOrders(t *testing.T) {
	g := diamond(t)
	cases := [][]NodeID{
		{1, 0, 2, 3},    // child before parent
		{0, 1, 2},       // wrong length
		{0, 1, 1, 3},    // repeated node
		{0, 1, 2, 99},   // unknown node
		{3, 2, 1, 0},    // fully reversed
		{0, 2, 1, 3, 3}, // too long
	}
	for i, c := range cases {
		if g.IsTopological(c) {
			t.Errorf("case %d: order %v accepted", i, c)
		}
	}
	if !g.IsTopological([]NodeID{0, 2, 1, 3}) {
		t.Error("valid order rejected")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	nd := c.AddNode("e")
	c.MustAddEdge(3, nd)
	if g.Len() != 4 || g.NumEdges() != 4 {
		t.Fatal("mutating clone changed original")
	}
	if c.Len() != 5 || c.NumEdges() != 5 {
		t.Fatal("clone did not accept mutation")
	}
}

func TestLookup(t *testing.T) {
	g := diamond(t)
	if g.Lookup("c") != 2 {
		t.Fatalf("Lookup(c) = %d", g.Lookup("c"))
	}
	if g.Lookup("zzz") != Invalid {
		t.Fatal("Lookup of missing name should be Invalid")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := diamond(t)
	es := g.Edges()
	if len(es) != 4 {
		t.Fatalf("len(Edges) = %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i-1][0] > es[i][0] || (es[i-1][0] == es[i][0] && es[i-1][1] >= es[i][1]) {
			t.Fatalf("edges not sorted: %v", es)
		}
	}
}

// RandomLayered builds a random layered DAG for property tests.
func randomLayered(rng *rand.Rand, layers, width int) *Graph {
	g := New()
	var prev []NodeID
	for l := 0; l < layers; l++ {
		w := 1 + rng.Intn(width)
		var cur []NodeID
		for i := 0; i < w; i++ {
			id := g.AddNode("n")
			cur = append(cur, id)
			for _, p := range prev {
				if rng.Intn(2) == 0 {
					g.MustAddEdge(p, id)
				}
			}
		}
		prev = cur
	}
	return g
}

func TestTopoSortPropertyRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomLayered(rng, 2+rng.Intn(5), 4)
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		return g.IsTopological(order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapOrderProperty: ReadyHeap pops in ascending ID order with no rank,
// and in ascending rank order with one.
func TestHeapOrderProperty(t *testing.T) {
	f := func(vals []uint8, ranked bool) bool {
		h := ReadyHeap{}
		key := func(id NodeID) int { return int(id) }
		if ranked {
			h.Rank = make([]int, 256)
			for i := range h.Rank {
				h.Rank[i] = (i * 37) % 101 // not monotone in the ID, with ties
			}
			key = func(id NodeID) int { return h.Rank[id] }
		}
		for _, v := range vals {
			h.Push(NodeID(v))
		}
		prev, n := -1, 0
		for h.Len() > 0 {
			k := key(h.Pop())
			if k < prev {
				return false
			}
			prev, n = k, n+1
		}
		return n == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
