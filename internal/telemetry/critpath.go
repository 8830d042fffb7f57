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

// NodeInterval is one executed node's run window.
type NodeInterval struct {
	Node       string
	Start, End time.Time
}

// CriticalPath analyzes a completed trace: spans is a Collector.Spans()
// snapshot (root first). It hands the root's window and the node spans —
// those carrying AttrNode, so gateway-side spans (admission, queue wait)
// never enter the DAG walk — to NodeCriticalPath.
func CriticalPath(spans []Span, parents map[string][]string) CritReport {
	if len(spans) == 0 {
		return CritReport{}
	}
	root := spans[0]
	var nodes []NodeInterval
	for _, sp := range spans[1:] {
		if n := sp.StrAttr(AttrNode); n != "" {
			nodes = append(nodes, NodeInterval{Node: n, Start: sp.Start, End: sp.End})
		}
	}
	rep := NodeCriticalPath(root.Start, root.Duration().Seconds(), nodes, parents)
	rep.TraceID = root.TraceID.String()
	rep.RunID = root.StrAttr(AttrRunID)
	return rep
}

// NodeCriticalPath is the critical-path rule over a run's executed nodes:
// origin is the run's start (a source node's wait runs from there, so queue
// wait and admission count), wallSeconds its wall time, and parents maps
// each node name to its DAG parents (missing entries mean source node). A
// node's wait is measured against its latest-finishing parent *among
// nodes* — parents served from the Memory Catalog or storage without
// re-execution count as free.
func NodeCriticalPath(origin time.Time, wallSeconds float64, nodes []NodeInterval, parents map[string][]string) CritReport {
	rep := CritReport{WallSeconds: wallSeconds}
	if len(nodes) == 0 {
		return rep
	}
	byNode := make(map[string]NodeInterval, len(nodes))
	for _, n := range nodes {
		byNode[n.Node] = n
	}

	// blocker returns the latest-finishing executed parent of node, if any.
	blocker := func(node string) (string, time.Time, bool) {
		var bestName string
		var bestEnd time.Time
		found := false
		for _, p := range parents[node] {
			pn, ok := byNode[p]
			if !ok {
				continue
			}
			if !found || pn.End.After(bestEnd) {
				bestName, bestEnd, found = p, pn.End, true
			}
		}
		return bestName, bestEnd, found
	}

	crit := make(map[string]*CritNode, len(byNode))
	var last string
	var lastEnd time.Time
	for _, n := range nodes {
		prev := origin
		if _, end, ok := blocker(n.Node); ok {
			prev = end
		}
		wait := n.Start.Sub(prev).Seconds()
		if wait < 0 {
			wait = 0
		}
		crit[n.Node] = &CritNode{
			Node:         n.Node,
			StartSeconds: n.Start.Sub(origin).Seconds(),
			EndSeconds:   n.End.Sub(origin).Seconds(),
			SelfSeconds:  n.End.Sub(n.Start).Seconds(),
			WaitSeconds:  wait,
		}
		if last == "" || n.End.After(lastEnd) {
			last, lastEnd = n.Node, n.End
		}
	}

	// Walk back from the last-finishing node through latest-finishing
	// parents: the longest blocking chain.
	var chain []string
	for cur := last; cur != ""; {
		chain = append(chain, cur)
		crit[cur].Critical = true
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
		rep.ChainSeconds += crit[n].SelfSeconds + crit[n].WaitSeconds
	}
	if rep.WallSeconds > 0 {
		rep.Coverage = rep.ChainSeconds / rep.WallSeconds
	}

	rep.Nodes = make([]CritNode, 0, len(crit))
	for _, n := range crit {
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
