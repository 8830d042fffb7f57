package sc_test

import (
	"context"
	"fmt"

	sc "github.com/shortcircuit-db/sc"
)

// ExampleSolve reproduces the paper's Figure 7: under a 100GB Memory
// Catalog, reordering lets both 100GB intermediates be kept in memory at
// different times.
func ExampleSolve() {
	const gb = int64(1) << 30
	b := sc.NewGraphBuilder()
	v1 := b.Node("v1", 100*gb, 100)
	v2 := b.Node("v2", 10*gb, 10)
	v3 := b.Node("v3", 100*gb, 100)
	v4 := b.Node("v4", 10*gb, 10)
	v5 := b.Node("v5", 10*gb, 10)
	b.Node("v6", 10*gb, 10)
	_ = b.Edge(v1, v2)
	_ = b.Edge(v1, v4)
	_ = b.Edge(v2, v3)
	_ = b.Edge(v3, v5)

	p := b.Problem(100 * gb)
	plan, stats, err := sc.Solve(context.Background(), p)
	if err != nil {
		panic(err)
	}
	fmt.Printf("flagged %d nodes, score %.0f, feasible %v\n",
		len(plan.FlaggedIDs()), stats.Score, sc.Feasible(p, plan))
	// Output: flagged 3 nodes, score 120, feasible true
}

// ExampleSolve_chain runs the paper's optimizer on a two-step pipeline
// whose budget holds both outputs: the staging table and the report built
// from it are both kept in the Memory Catalog, in dependency order.
func ExampleSolve_chain() {
	const gb = int64(1) << 30
	b := sc.NewGraphBuilder()
	staging := b.Node("staging", 2*gb, 20)
	report := b.Node("report", 1*gb, 10)
	_ = b.Edge(staging, report)

	p := b.Problem(4 * gb)
	plan, _, err := sc.Solve(context.Background(), p)
	if err != nil {
		panic(err)
	}
	for _, id := range plan.Order {
		fmt.Printf("%s flagged=%v\n", p.G.Name(id), plan.Flagged[id])
	}
	// Output:
	// staging flagged=true
	// report flagged=true
}

// ExampleGraphBuilder shows score estimation from sizes and a device
// profile when no execution metadata exists yet.
func ExampleGraphBuilder() {
	b := sc.NewGraphBuilder()
	src := b.Node("staging", 1<<30, 0)
	rpt := b.Node("report", 1<<20, 0)
	_ = b.Edge(src, rpt)

	p := b.Problem(2 << 30)
	sc.EstimateScores(p, sc.PaperProfile())
	fmt.Printf("staging scores higher than report: %v\n", p.Scores[0] > p.Scores[1])
	// Output: staging scores higher than report: true
}
