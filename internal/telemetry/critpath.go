package telemetry

import (
	"sort"
	"time"
)

// CritNode is one node span's timing decomposition in a critical-path
// report. Offsets are seconds from the root span's start.
type CritNode struct {
	Node         string  `json:"node"`
	StartSeconds float64 `json:"start_seconds"`
	EndSeconds   float64 `json:"end_seconds"`
	// SelfSeconds is the span's own duration: the node was executing.
	SelfSeconds float64 `json:"self_seconds"`
	// WaitSeconds is the gap between the node's latest-finishing DAG
	// parent (or the root start, for source nodes — queue wait and
	// admission) and the node's start: the node was runnable-but-blocked
	// on scheduling or on upstream work finishing.
	WaitSeconds float64 `json:"wait_seconds"`
	// Critical marks membership in the longest blocking chain.
	Critical bool `json:"critical"`
}

// CritReport is the critical-path analysis of one completed run's trace.
type CritReport struct {
	TraceID     string  `json:"trace_id"`
	RunID       string  `json:"run_id,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	// Chain is the longest blocking chain through the DAG, in execution
	// order: each entry waited (directly) on the one before it.
	Chain []string `json:"chain"`
	// ChainSeconds is the chain's total self+wait time. Because each
	// link's wait is measured against the previous link's end, the sum
	// telescopes to the chain's end offset — shortening any link would
	// have moved the run's last node earlier.
	ChainSeconds float64 `json:"chain_seconds"`
	// Coverage is ChainSeconds / WallSeconds: how much of the run's wall
	// time the chain explains. The remainder is pre-first-node overhead
	// and post-last-node work (background materialization draining).
	Coverage float64 `json:"coverage"`
	// Nodes lists every executed node's decomposition, by start time.
	Nodes []CritNode `json:"nodes"`
}

// CriticalPath analyzes a completed trace. spans is a Collector.Spans()
// snapshot (root first); parents maps each node name to its DAG parents
// (missing entries mean source node). Only spans carrying the AttrNode
// attribute participate in the DAG walk, so gateway-side spans (admission,
// queue wait) don't perturb the chain. A node's wait is measured against
// its latest-finishing parent *with a span in this run* — parents served
// from the Memory Catalog or storage without re-execution count as free.
func CriticalPath(spans []Span, parents map[string][]string) CritReport {
	var rep CritReport
	if len(spans) == 0 {
		return rep
	}
	root := spans[0]
	rep.TraceID = root.TraceID.String()
	rep.RunID = root.StrAttr(AttrRunID)
	rep.WallSeconds = root.Duration().Seconds()

	byNode := make(map[string]*Span)
	for i := range spans[1:] {
		sp := &spans[1+i]
		if n := sp.StrAttr(AttrNode); n != "" {
			byNode[n] = sp
		}
	}
	if len(byNode) == 0 {
		return rep
	}

	// blocker returns the latest-finishing executed parent of node, if any.
	blocker := func(node string) (string, time.Time, bool) {
		var bestName string
		var bestEnd time.Time
		found := false
		for _, p := range parents[node] {
			psp, ok := byNode[p]
			if !ok {
				continue
			}
			if !found || psp.End.After(bestEnd) {
				bestName, bestEnd, found = p, psp.End, true
			}
		}
		return bestName, bestEnd, found
	}

	nodes := make(map[string]*CritNode, len(byNode))
	var last string
	var lastEnd time.Time
	for name, sp := range byNode {
		prev := root.Start
		if _, end, ok := blocker(name); ok {
			prev = end
		}
		wait := sp.Start.Sub(prev).Seconds()
		if wait < 0 {
			wait = 0
		}
		nodes[name] = &CritNode{
			Node:         name,
			StartSeconds: sp.Start.Sub(root.Start).Seconds(),
			EndSeconds:   sp.End.Sub(root.Start).Seconds(),
			SelfSeconds:  sp.Duration().Seconds(),
			WaitSeconds:  wait,
		}
		if last == "" || sp.End.After(lastEnd) {
			last, lastEnd = name, sp.End
		}
	}

	// Walk back from the last-finishing node through latest-finishing
	// parents: the longest blocking chain.
	var chain []string
	for cur := last; cur != ""; {
		chain = append(chain, cur)
		nodes[cur].Critical = true
		next, _, ok := blocker(cur)
		if !ok || len(chain) > len(byNode) {
			break
		}
		cur = next
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	rep.Chain = chain
	for _, n := range chain {
		rep.ChainSeconds += nodes[n].SelfSeconds + nodes[n].WaitSeconds
	}
	if rep.WallSeconds > 0 {
		rep.Coverage = rep.ChainSeconds / rep.WallSeconds
	}

	rep.Nodes = make([]CritNode, 0, len(nodes))
	for _, n := range nodes {
		rep.Nodes = append(rep.Nodes, *n)
	}
	sort.Slice(rep.Nodes, func(i, j int) bool {
		if rep.Nodes[i].StartSeconds != rep.Nodes[j].StartSeconds {
			return rep.Nodes[i].StartSeconds < rep.Nodes[j].StartSeconds
		}
		return rep.Nodes[i].Node < rep.Nodes[j].Node
	})
	return rep
}
