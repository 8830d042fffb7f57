// Package sc is Short-Circuit (S/C): a system that speeds up the refresh of
// a DAG of materialized views under a bounded Memory Catalog, reproducing
// "S/C: Speeding up Data Materialization with Bounded Memory" (ICDE 2023).
//
// Given MV definitions with acyclic dependencies, S/C jointly optimizes
// (1) the MV refresh order and (2) which intermediate results to keep
// temporarily in memory, so downstream updates read hot inputs at memory
// speed while materialization to external storage proceeds in the
// background. All MVs are still fully materialized, so SLAs are unaffected.
//
// The main entry point is the Refresher, a long-lived session that unifies
// run → observe → re-optimize for a recurring pipeline:
//
//	ref, err := sc.New(mvs, store,
//		sc.WithMemory(1<<30),
//		sc.WithConcurrency(4),
//		sc.WithObserver(sc.ObserverFunc(func(e sc.Event) { log.Println(e.Kind, e.Node) })),
//	)
//	...
//	res, err := ref.Refresh(ctx) // run, record metadata, re-optimize
//
// Refreshes honor ctx cancellation and deadlines mid-run. Every plan comes
// from the paper's optimizer, Algorithm 2: the SimplifiedMKP knapsack
// alternating with MA-DFS. The baselines it is evaluated against are not
// session options; cmd/scopt runs them by name and cmd/scbench in the
// paper's experiments.
//
// For pure optimization problems (no SQL, no storage) build a Problem with
// GraphBuilder and call Solve:
//
//	g := sc.NewGraphBuilder()
//	a := g.Node("mv_a", sizeA, scoreA)
//	b := g.Node("mv_b", sizeB, scoreB)
//	g.Edge(a, b) // mv_b reads mv_a
//	plan, stats, err := sc.Solve(ctx, g.Problem(memoryBudget))
//
// The plan's Order and FlaggedIDs drive either the real Controller
// (Refresher) or the calibrated simulator (Refresher.Simulate, SimulatePlan).
package sc

import (
	"context"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/opt"
)

// NodeID identifies a node in a workload graph.
type NodeID = dag.NodeID

// Problem is an S/C Opt instance: dependency graph, per-node output sizes,
// per-node speedup scores, and the Memory Catalog budget — and, optionally,
// per-node serialized sizes, the second form an output can be resident in.
type Problem = core.Problem

// Plan is an optimized refresh plan: an execution order plus the flagged
// set kept in the Memory Catalog, each flagged node as its rows unless
// Forms names its serialized bytes.
type Plan = core.Plan

// DeviceProfile describes storage and memory performance for score
// estimation and simulation.
type DeviceProfile = costmodel.DeviceProfile

// EncodingOptions configures the compressed columnar subsystem enabled by
// WithEncoding: per-column codec selection mode, chunking and sampling.
// The zero value selects codecs automatically with default chunking.
type EncodingOptions = encoding.Options

// EncodingMode selects how codecs are chosen; see EncodingAuto and
// EncodingRaw.
type EncodingMode = encoding.Mode

// Encoding modes.
const (
	// EncodingAuto samples each column chunk and picks the smallest of the
	// applicable codecs (dictionary, delta + bit-packing, scaled-decimal
	// floats, raw).
	EncodingAuto = encoding.ModeAuto
	// EncodingRaw stores every chunk uncompressed in the chunked format; useful
	// as an explicit baseline in experiments.
	EncodingRaw = encoding.ModeRaw
)

// PaperProfile returns the device profile of the paper's evaluation
// environment (§VI-A), with bandwidths expressed as effective table-I/O
// throughput.
func PaperProfile() DeviceProfile { return costmodel.PaperProfile() }

// GraphBuilder assembles a Problem incrementally.
type GraphBuilder struct {
	g      *dag.Graph
	sizes  []int64
	scores []float64
}

// NewGraphBuilder returns an empty builder.
func NewGraphBuilder() *GraphBuilder {
	return &GraphBuilder{g: dag.New()}
}

// Node adds an MV update with its intermediate-table size in bytes and its
// speedup score in seconds (use EstimateScores to derive scores from sizes
// and a device profile).
func (b *GraphBuilder) Node(name string, sizeBytes int64, score float64) NodeID {
	id := b.g.AddNode(name)
	b.sizes = append(b.sizes, sizeBytes)
	b.scores = append(b.scores, score)
	return id
}

// Edge declares that child consumes parent's output.
func (b *GraphBuilder) Edge(parent, child NodeID) error {
	return b.g.AddEdge(parent, child)
}

// Problem finalizes the builder with the given Memory Catalog size.
func (b *GraphBuilder) Problem(memory int64) *Problem {
	return &Problem{
		G:      b.g,
		Sizes:  append([]int64(nil), b.sizes...),
		Scores: append([]float64(nil), b.scores...),
		Memory: memory,
	}
}

// EstimateScores fills the problem's scores from its sizes and a device
// profile using the paper's §IV formula: per-child read savings plus the
// overlapped write saving.
func EstimateScores(p *Problem, d DeviceProfile) {
	p.Scores = costmodel.Scores(d, p.G, p.Sizes)
}

// Stats reports how the optimizer converged: Iterations, the plan's total
// speedup Score in seconds and PeakMemory in bytes, Elapsed wall-clock and
// the StopReason.
type Stats = opt.Stats

// Solve solves S/C Opt (Problem 1 of the paper) with the paper's
// Algorithm 2 and returns a feasible plan: a topological execution order
// and a flagged set whose peak resident size never exceeds the Memory
// Catalog budget. The context is honored between alternating-optimization
// iterations.
func Solve(ctx context.Context, p *Problem) (*Plan, *Stats, error) {
	return opt.Solve(ctx, p, opt.Options{})
}

// Feasible reports whether the plan's flagged set fits in the problem's
// Memory Catalog at every step of its order.
func Feasible(p *Problem, pl *Plan) bool { return core.Feasible(p, pl) }

// PeakMemory returns the plan's peak Memory Catalog usage in bytes under
// the unit-time model of §IV.
func PeakMemory(p *Problem, pl *Plan) int64 { return core.PeakMemoryUsage(p, pl) }
