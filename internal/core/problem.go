// Package core defines the S/C Opt problem (§IV of the paper) and the
// shared machinery every solver builds on: execution plans, peak and average
// Memory Catalog usage, feasibility checks, and constraint-set extraction
// for the multidimensional-knapsack formulation — plus the priority a
// Controller with more than one token dispatches ready nodes by
// (DispatchRank).
//
// Memory is measured by walking a plan. Schedule is the one serial forward
// model of a refresh (§III-C); MemoryTimeline, PeakMemoryUsage and Feasible
// are its unit-time case, and internal/sim prices it on a device.
//
// Inputs mirror Problem 1 of the paper: a dependency DAG G, per-node output
// sizes S, per-node speedup scores T, and the Memory Catalog size M. A
// solution is an execution order τ together with a set U of flagged nodes
// whose outputs are kept in memory until all their dependents finish.
//
// A flagged output is resident in one of two forms (Form): its rows, which
// children read for free, or its serialized bytes, which are smaller and
// which each child decodes. The paper has the first only; the second is what
// lets an output whose rows exceed M stay resident all the same. Everything
// that measures memory here — PeakMemoryUsage, MemoryTimeline, Feasible,
// AverageMemoryUsage, TotalFlaggedSize — charges a node the size of the form
// its plan names, and a plan that names none is the paper's.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/shortcircuit-db/sc/internal/dag"
)

// Problem is an instance of S/C Opt.
type Problem struct {
	G      *dag.Graph
	Sizes  []int64   // Sizes[i]: bytes of the intermediate table produced by node i
	Scores []float64 // Scores[i]: estimated seconds saved by flagging node i
	Memory int64     // Memory Catalog size M in bytes
	// SerializedSizes[i] is the size of node i's output in serialized form,
	// the second form a flagged output can be resident in. Nil offers no
	// second form: every flagged node is resident as rows.
	SerializedSizes []int64
}

// Validate checks that the instance is well-formed.
func (p *Problem) Validate() error {
	if p.G == nil {
		return errors.New("core: nil graph")
	}
	n := p.G.Len()
	if len(p.Sizes) != n {
		return fmt.Errorf("core: %d sizes for %d nodes", len(p.Sizes), n)
	}
	if len(p.Scores) != n {
		return fmt.Errorf("core: %d scores for %d nodes", len(p.Scores), n)
	}
	if p.SerializedSizes != nil && len(p.SerializedSizes) != n {
		return fmt.Errorf("core: %d serialized sizes for %d nodes", len(p.SerializedSizes), n)
	}
	for i, s := range p.Sizes {
		if s < 0 || (p.SerializedSizes != nil && p.SerializedSizes[i] < 0) {
			return fmt.Errorf("core: negative size at node %d", i)
		}
	}
	for i, t := range p.Scores {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("core: non-finite score at node %d", i)
		}
	}
	if p.Memory < 0 {
		return errors.New("core: negative Memory Catalog size")
	}
	if !p.G.IsAcyclic() {
		return dag.ErrCycle
	}
	return nil
}

// Form is how a flagged node's output is held in the Memory Catalog.
type Form uint8

const (
	// Rows holds the table itself: Problem.Sizes[i] bytes, read with no
	// decode. The zero value, and the form of every flagged node of a plan
	// without Forms.
	Rows Form = iota
	// Serialized holds the bytes the output is written to storage as:
	// Problem.SerializedSizes[i] bytes, decoded by every child that reads it.
	Serialized
)

// String names the form as reports and events spell it.
func (f Form) String() string {
	if f == Serialized {
		return "serialized"
	}
	return "rows"
}

// Plan is a solution to S/C Opt: an execution order and the flagged set.
type Plan struct {
	Order   []dag.NodeID // execution order τ; Order[t] runs at step t
	Flagged []bool       // Flagged[i]: keep node i's output in the Memory Catalog
	// Forms[i] is the form flagged node i is resident in. Nil means Rows for
	// every node, which is what every selector returns; only opt.Solve's
	// second chance marks a node Serialized.
	Forms []Form
}

// FormOf returns the form node id is resident in when flagged.
func (pl *Plan) FormOf(id dag.NodeID) Form {
	if len(pl.Forms) == 0 {
		return Rows
	}
	return pl.Forms[id]
}

// ResidentSize returns the bytes node id occupies in the Memory Catalog
// while it is flagged under pl: the size of the form the plan names.
func (p *Problem) ResidentSize(pl *Plan, id dag.NodeID) int64 {
	if pl.FormOf(id) == Serialized {
		return p.SerializedSizes[id]
	}
	return p.Sizes[id]
}

// NewPlan returns a plan with the given order and nothing flagged.
func NewPlan(order []dag.NodeID) *Plan {
	n := len(order)
	return &Plan{Order: append([]dag.NodeID(nil), order...), Flagged: make([]bool, n)}
}

// Clone returns a deep copy.
func (pl *Plan) Clone() *Plan {
	return &Plan{
		Order:   append([]dag.NodeID(nil), pl.Order...),
		Flagged: append([]bool(nil), pl.Flagged...),
		Forms:   append([]Form(nil), pl.Forms...),
	}
}

// FlaggedIDs returns the flagged nodes in execution order.
func (pl *Plan) FlaggedIDs() []dag.NodeID {
	var out []dag.NodeID
	for _, id := range pl.Order {
		if pl.Flagged[id] {
			out = append(out, id)
		}
	}
	return out
}

// TotalScore sums the speedup scores of flagged nodes.
func (pl *Plan) TotalScore(p *Problem) float64 {
	var s float64
	for i, f := range pl.Flagged {
		if f {
			s += p.Scores[i]
		}
	}
	return s
}

// TotalFlaggedSize sums the resident sizes of flagged nodes.
func (pl *Plan) TotalFlaggedSize(p *Problem) int64 {
	var s int64
	for i, f := range pl.Flagged {
		if f {
			s += p.ResidentSize(pl, dag.NodeID(i))
		}
	}
	return s
}

// Validate checks the plan against the problem: the order must be a
// topological permutation, the flagged slice sized to the graph, and the
// forms, when present, sized to the graph and naming the serialized form
// only for flagged nodes of a problem that offers it.
func (pl *Plan) Validate(p *Problem) error {
	if len(pl.Flagged) != p.G.Len() {
		return fmt.Errorf("core: flagged slice has %d entries for %d nodes", len(pl.Flagged), p.G.Len())
	}
	if err := pl.ValidateForms(p.SerializedSizes != nil); err != nil {
		return err
	}
	if !p.G.IsTopological(pl.Order) {
		return errors.New("core: order is not a topological permutation")
	}
	return nil
}

// ValidateForms checks Forms against Flagged: absent or one per node, and
// Serialized only on a flagged node, and only where the caller offers the
// serialized form at all.
func (pl *Plan) ValidateForms(offered bool) error {
	if len(pl.Forms) != 0 && len(pl.Forms) != len(pl.Flagged) {
		return fmt.Errorf("core: forms slice has %d entries for %d nodes", len(pl.Forms), len(pl.Flagged))
	}
	for i, f := range pl.Forms {
		switch {
		case f > Serialized:
			return fmt.Errorf("core: node %d has unknown form %d", i, f)
		case f == Serialized && !pl.Flagged[i]:
			return fmt.Errorf("core: node %d is serialized but not flagged", i)
		case f == Serialized && !offered:
			return fmt.Errorf("core: node %d is serialized where no serialized form is offered", i)
		}
	}
	return nil
}

// Positions inverts an order: pos[id] = step at which id executes.
func Positions(order []dag.NodeID) []int {
	pos := make([]int, len(order))
	for t, id := range order {
		pos[id] = t
	}
	return pos
}

// ReleasePositions returns, for every node, the step after which its output
// may leave the Memory Catalog: the position of its last-executed child, or
// its own position when it has no children (childless flagged nodes occupy
// memory only during their own step in the unit-time model).
func ReleasePositions(g *dag.Graph, order []dag.NodeID) []int {
	pos := Positions(order)
	rel := make([]int, g.Len())
	for i := 0; i < g.Len(); i++ {
		rel[i] = pos[i]
		for _, c := range g.Children(dag.NodeID(i)) {
			if pos[c] > rel[i] {
				rel[i] = pos[c]
			}
		}
	}
	return rel
}

// DispatchRank orders nodes for a dispatcher with more than one token:
// rank[id] is id's place in the sequence it prefers among ready nodes,
// highest bottom level first (list scheduling by highest level first). A
// node's bottom level is its own seconds plus the largest bottom level among
// its children — the length of the longest path from it to a sink — and
// equal levels keep plan position. seconds has one entry per node; one that
// is not positive counts as 0, so a parent never ranks after its child and
// all-zero seconds give exactly the plan's order. An order that is not a
// topological permutation of g has no rank: the result is nil.
func DispatchRank(g *dag.Graph, order []dag.NodeID, seconds []float64) []int {
	if !g.IsTopological(order) {
		return nil
	}
	level := make([]float64, g.Len())
	for t := len(order) - 1; t >= 0; t-- {
		id := order[t]
		var below float64
		for _, c := range g.Children(id) {
			below = max(below, level[c])
		}
		if s := seconds[id]; s > 0 {
			below += s
		}
		level[id] = below
	}
	byRank := slices.Clone(order)
	// Stable on plan order: equal levels keep plan position.
	slices.SortStableFunc(byRank, func(a, b dag.NodeID) int { return cmp.Compare(level[b], level[a]) })
	return Positions(byRank)
}

// PeakMemoryUsage computes the maximum combined size of flagged nodes
// resident in the Memory Catalog at any step of the order, in the unit-time
// model of §IV: a flagged node occupies memory, at the size of its form,
// from its own step through the step of its last child. Linear in nodes plus
// edges.
func PeakMemoryUsage(p *Problem, pl *Plan) int64 {
	out, _ := unitTime(p, pl, nil).Run(context.TODO()) // fails only when the context is done
	return out.Peak
}

// MemoryTimeline returns the resident flagged bytes at every step.
func MemoryTimeline(p *Problem, pl *Plan) []int64 {
	out := make([]int64, p.G.Len())
	unitTime(p, pl, func(r StepRecord) { out[r.Step] = r.Resident }).Run(context.TODO()) // fails only when the context is done
	return out
}

// unitTime is the Schedule of the unit-time model: every node takes one
// unit, every write lands at once, nothing caps the catalog, and a flagged
// node is charged its ResidentSize.
func unitTime(p *Problem, pl *Plan, done func(StepRecord)) *Schedule {
	return &Schedule{
		G: p.G, Plan: pl, Cap: math.MaxInt64,
		Size:    func(id dag.NodeID) int64 { return p.ResidentSize(pl, id) },
		Compute: func(dag.NodeID) float64 { return 1 },
		OnDone:  done,
	}
}

// AverageMemoryUsage is the objective of S/C Opt Order (Problem 3):
// (1/n) Σ_{flagged i} (release(i) − pos(i))·size(i), assuming unit job
// execution times. Lower is better: it rewards orders that release flagged
// outputs soon after they are produced.
func AverageMemoryUsage(p *Problem, pl *Plan) float64 {
	n := p.G.Len()
	if n == 0 {
		return 0
	}
	pos := Positions(pl.Order)
	rel := ReleasePositions(p.G, pl.Order)
	var sum float64
	for i := 0; i < n; i++ {
		if !pl.Flagged[i] {
			continue
		}
		sum += float64(rel[i]-pos[i]) * float64(p.ResidentSize(pl, dag.NodeID(i)))
	}
	return sum / float64(n)
}

// Feasible reports whether the flagged set fits in the Memory Catalog at
// every step of the order.
func Feasible(p *Problem, pl *Plan) bool {
	return PeakMemoryUsage(p, pl) <= p.Memory
}
