// Command scopt runs the S/C optimizer as a filter: a JSON problem on
// stdin, a JSON plan on stdout. This is how external pipeline tools (dbt,
// Airflow operators) integrate the optimizer without linking Go code.
//
// Input format:
//
//	{
//	  "nodes": [{"name": "mv_a", "size": 1073741824, "score": 12.5,
//	             "serialized_size": 429496729}, ...],
//	  "edges": [["mv_a", "mv_b"], ...],
//	  "memory": 1717986918,
//	  "flag_algorithm": "mkp",    // optional
//	  "order_algorithm": "ma-dfs", // optional
//	  "seed": 7                    // optional; seeds a randomized algorithm named above
//	}
//
// Scores may be omitted (0); pass "estimate_scores": true to derive them
// from sizes with the paper's device profile. "serialized_size" is optional
// too: where any node gives one, a node the knapsack leaves out may still be
// kept in memory as its serialized bytes, and the output's "plan" says which
// form each node is resident in ("none", "rows" or "serialized") and the
// bytes charged for it.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"

	sc "github.com/shortcircuit-db/sc"
)

type inputNode struct {
	Name  string  `json:"name"`
	Size  int64   `json:"size"`
	Score float64 `json:"score"`
	// SerializedSize is the output's size as written to storage; 0 means
	// no smaller form than Size is known.
	SerializedSize int64 `json:"serialized_size"`
}

type input struct {
	Nodes          []inputNode `json:"nodes"`
	Edges          [][2]string `json:"edges"`
	Memory         int64       `json:"memory"`
	FlagAlgorithm  string      `json:"flag_algorithm"`
	OrderAlgorithm string      `json:"order_algorithm"`
	EstimateScores bool        `json:"estimate_scores"`
	Seed           int64       `json:"seed"`
}

// planRow is one node of the plan, in execution order.
type planRow struct {
	Node         string `json:"node"`
	Form         string `json:"form"`
	ChargedBytes int64  `json:"charged_bytes"`
}

type output struct {
	Order      []string  `json:"order"`
	Flagged    []string  `json:"flagged"`
	Plan       []planRow `json:"plan"`
	Score      float64   `json:"score_seconds"`
	PeakMemory int64     `json:"peak_memory_bytes"`
	Iterations int       `json:"iterations"`
	ElapsedUS  int64     `json:"elapsed_us"`
}

func main() {
	var in input
	dec := json.NewDecoder(os.Stdin)
	if err := dec.Decode(&in); err != nil {
		fail("decode input: %v", err)
	}
	b := sc.NewGraphBuilder()
	ids := make(map[string]sc.NodeID, len(in.Nodes))
	for _, n := range in.Nodes {
		if _, dup := ids[n.Name]; dup {
			fail("duplicate node %q", n.Name)
		}
		ids[n.Name] = b.Node(n.Name, n.Size, n.Score)
	}
	for _, e := range in.Edges {
		p, ok := ids[e[0]]
		if !ok {
			fail("edge references unknown node %q", e[0])
		}
		c, ok := ids[e[1]]
		if !ok {
			fail("edge references unknown node %q", e[1])
		}
		if err := b.Edge(p, c); err != nil {
			fail("%v", err)
		}
	}
	p := b.Problem(in.Memory)
	for i, n := range in.Nodes {
		if n.SerializedSize > 0 {
			if p.SerializedSizes == nil {
				p.SerializedSizes = append([]int64(nil), p.Sizes...)
			}
			p.SerializedSizes[i] = n.SerializedSize
		}
	}
	if in.EstimateScores {
		sc.EstimateScores(p, sc.PaperProfile())
	}
	// The JSON algorithm names resolve through the public registries, so
	// strategies registered by embedding programs are reachable here too.
	var opts []sc.Option
	if in.FlagAlgorithm != "" {
		sel, err := sc.SelectorByName(in.FlagAlgorithm, in.Seed)
		if err != nil {
			fail("%v", err)
		}
		opts = append(opts, sc.WithFlagSelector(sel))
	}
	if in.OrderAlgorithm != "" {
		ord, err := sc.OrdererByName(in.OrderAlgorithm, in.Seed)
		if err != nil {
			fail("%v", err)
		}
		opts = append(opts, sc.WithOrderer(ord))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	plan, stats, err := sc.Solve(ctx, p, opts...)
	if err != nil {
		fail("%v", err)
	}
	out := output{
		Score:      stats.Score,
		PeakMemory: stats.PeakMemory,
		Iterations: stats.Iterations,
		ElapsedUS:  stats.Elapsed.Microseconds(),
	}
	for _, id := range plan.Order {
		out.Order = append(out.Order, p.G.Name(id))
		row := planRow{Node: p.G.Name(id), Form: "none"}
		if plan.Flagged[id] {
			row.Form, row.ChargedBytes = plan.FormOf(id).String(), p.ResidentSize(plan, id)
		}
		out.Plan = append(out.Plan, row)
	}
	for _, id := range plan.FlaggedIDs() {
		out.Flagged = append(out.Flagged, p.G.Name(id))
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fail("encode output: %v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scopt: "+format+"\n", args...)
	os.Exit(1)
}
