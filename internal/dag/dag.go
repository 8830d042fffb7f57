// Package dag provides the directed-acyclic-graph substrate used throughout
// S/C: the dependency graph of materialized-view updates (§IV of the paper),
// topological sorts, reachability, and structural queries.
//
// Nodes are identified by dense integer IDs in [0, N). The graph is
// append-only: nodes and edges can be added but not removed, which matches
// how MV dependency graphs are extracted from view definitions.
package dag

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a node in a Graph. IDs are dense: the i-th added node
// has ID i.
type NodeID int

// Invalid is returned by queries that find no node.
const Invalid NodeID = -1

// ErrCycle is returned when an operation requires acyclicity but the graph
// contains a directed cycle.
var ErrCycle = errors.New("dag: graph contains a cycle")

// Graph is a directed graph with dense integer node IDs. Edges point from a
// producer node to a consumer node: an edge (u, v) means v reads the output
// of u, so u must execute before v.
type Graph struct {
	names    []string
	children [][]NodeID // adjacency: children[u] lists v with edge (u, v)
	parents  [][]NodeID // reverse adjacency
	edgeSet  map[[2]NodeID]struct{}
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{edgeSet: make(map[[2]NodeID]struct{})}
}

// AddNode appends a node with the given human-readable name and returns its ID.
func (g *Graph) AddNode(name string) NodeID {
	id := NodeID(len(g.names))
	g.names = append(g.names, name)
	g.children = append(g.children, nil)
	g.parents = append(g.parents, nil)
	return id
}

// AddEdge records a dependency: child consumes the output of parent.
// Duplicate edges are ignored. Self-edges are rejected.
func (g *Graph) AddEdge(parent, child NodeID) error {
	if parent == child {
		return fmt.Errorf("dag: self-edge on node %d", parent)
	}
	if !g.valid(parent) || !g.valid(child) {
		return fmt.Errorf("dag: edge (%d,%d) references unknown node", parent, child)
	}
	key := [2]NodeID{parent, child}
	if _, dup := g.edgeSet[key]; dup {
		return nil
	}
	g.edgeSet[key] = struct{}{}
	g.children[parent] = append(g.children[parent], child)
	g.parents[child] = append(g.parents[child], parent)
	return nil
}

// MustAddEdge is AddEdge that panics on error; convenient for static graphs.
func (g *Graph) MustAddEdge(parent, child NodeID) {
	if err := g.AddEdge(parent, child); err != nil {
		panic(err)
	}
}

func (g *Graph) valid(id NodeID) bool { return id >= 0 && int(id) < len(g.names) }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.names) }

// NumEdges returns the number of distinct edges.
func (g *Graph) NumEdges() int { return len(g.edgeSet) }

// Name returns the name of node id.
func (g *Graph) Name(id NodeID) string { return g.names[id] }

// Lookup returns the ID of the first node with the given name, or Invalid.
func (g *Graph) Lookup(name string) NodeID {
	for i, n := range g.names {
		if n == name {
			return NodeID(i)
		}
	}
	return Invalid
}

// Children returns the direct consumers of id. The returned slice must not
// be modified.
func (g *Graph) Children(id NodeID) []NodeID { return g.children[id] }

// Parents returns the direct producers consumed by id. The returned slice
// must not be modified.
func (g *Graph) Parents(id NodeID) []NodeID { return g.parents[id] }

// ParentNames maps each node with producers to their names, the shape the
// trace analyses (critical path, run summaries) consume.
func (g *Graph) ParentNames() map[string][]string {
	out := make(map[string][]string, len(g.names))
	for id, pars := range g.parents {
		for _, par := range pars {
			out[g.names[id]] = append(out[g.names[id]], g.names[par])
		}
	}
	return out
}

// HasEdge reports whether the edge (parent, child) exists.
func (g *Graph) HasEdge(parent, child NodeID) bool {
	_, ok := g.edgeSet[[2]NodeID{parent, child}]
	return ok
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	c.names = append([]string(nil), g.names...)
	c.children = make([][]NodeID, len(g.children))
	c.parents = make([][]NodeID, len(g.parents))
	for i := range g.children {
		c.children[i] = append([]NodeID(nil), g.children[i]...)
		c.parents[i] = append([]NodeID(nil), g.parents[i]...)
	}
	for k := range g.edgeSet {
		c.edgeSet[k] = struct{}{}
	}
	return c
}

// Edges returns all edges sorted by (parent, child).
func (g *Graph) Edges() [][2]NodeID {
	out := make([][2]NodeID, 0, len(g.edgeSet))
	for k := range g.edgeSet {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// TopoSort returns a topological order of the graph using Kahn's algorithm
// with smallest-ID tie-breaking, so the result is deterministic. It returns
// ErrCycle if the graph is cyclic.
func (g *Graph) TopoSort() ([]NodeID, error) {
	n := g.Len()
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(g.parents[i])
	}
	// Min-heap by ID for determinism.
	var ready ReadyHeap
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.Push(NodeID(i))
		}
	}
	order := make([]NodeID, 0, n)
	for ready.Len() > 0 {
		u := ready.Pop()
		order = append(order, u)
		for _, v := range g.children[u] {
			indeg[v]--
			if indeg[v] == 0 {
				ready.Push(v)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// IsAcyclic reports whether the graph has no directed cycle.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoSort()
	return err == nil
}

// IsTopological reports whether order is a permutation of all nodes that
// respects every edge (parents before children).
func (g *Graph) IsTopological(order []NodeID) bool {
	if len(order) != g.Len() {
		return false
	}
	pos := make([]int, g.Len())
	seen := make([]bool, g.Len())
	for i, id := range order {
		if !g.valid(id) || seen[id] {
			return false
		}
		seen[id] = true
		pos[id] = i
	}
	for e := range g.edgeSet {
		if pos[e[0]] >= pos[e[1]] {
			return false
		}
	}
	return true
}

// ReadyHeap is a binary min-heap of ready nodes keyed by Rank[id], or by ID
// when Rank is nil: TopoSort's smallest-ID tie-break, and the order in which
// a dispatcher starts the nodes whose parents have all finished.
type ReadyHeap struct {
	Rank []int
	a    []NodeID
}

// Len returns the number of nodes in the heap.
func (h *ReadyHeap) Len() int { return len(h.a) }

func (h *ReadyHeap) less(i, j int) bool {
	if h.Rank == nil {
		return h.a[i] < h.a[j]
	}
	return h.Rank[h.a[i]] < h.Rank[h.a[j]]
}

// Push adds a node.
func (h *ReadyHeap) Push(x NodeID) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

// Pop removes and returns the node of lowest key.
func (h *ReadyHeap) Pop() NodeID {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.less(l, small) {
			small = l
		}
		if r < last && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
