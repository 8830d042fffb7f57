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
// The defaults are the paper's algorithms. The names pick its baselines
// instead (case-insensitive): flag_algorithm is one of mkp, greedy, random
// or ratio; order_algorithm one of ma-dfs (alias madfs), dfs, kahn (alias
// topo), sa or separator (alias sep). An unknown name or an unknown field
// fails the run.
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
	"strings"

	sc "github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/flagsel"
	"github.com/shortcircuit-db/sc/internal/opt"
	"github.com/shortcircuit-db/sc/internal/order"
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
	dec.DisallowUnknownFields()
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
	sel, err := selector(in.FlagAlgorithm, in.Seed)
	if err != nil {
		fail("%v", err)
	}
	ord, err := orderer(in.OrderAlgorithm, in.Seed)
	if err != nil {
		fail("%v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	plan, stats, err := opt.Solve(ctx, p, opt.Options{Selector: sel, Orderer: ord})
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

// selector resolves flag_algorithm; "" is nil, the paper's SimplifiedMKP.
func selector(name string, seed int64) (flagsel.Selector, error) {
	switch strings.ToLower(name) {
	case "":
		return nil, nil
	case "mkp":
		return flagsel.MKP{}, nil
	case "greedy":
		return flagsel.Greedy{}, nil
	case "random":
		return flagsel.Random{Seed: seed}, nil
	case "ratio":
		return flagsel.Ratio{}, nil
	}
	return nil, fmt.Errorf("unknown flag_algorithm %q (accepted: mkp, greedy, random, ratio)", name)
}

// orderer resolves order_algorithm; "" is nil, the paper's MA-DFS.
func orderer(name string, seed int64) (order.Orderer, error) {
	switch strings.ToLower(name) {
	case "":
		return nil, nil
	case "ma-dfs", "madfs":
		return order.MADFS{}, nil
	case "dfs":
		return order.DFS{Seed: seed}, nil
	case "kahn", "topo":
		return order.Kahn{}, nil
	case "sa":
		return order.SA{Seed: seed}, nil
	case "separator", "sep":
		return order.Separator{}, nil
	}
	return nil, fmt.Errorf("unknown order_algorithm %q (accepted: ma-dfs, dfs, kahn, sa, separator; aliases madfs, topo, sep)", name)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scopt: "+format+"\n", args...)
	os.Exit(1)
}
