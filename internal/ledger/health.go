package ledger

import (
	"math"
	"sort"
)

// What a health report is judged over. Only the latency objective ever
// differed between callers, so it is Health's parameter and these are
// constants.
const (
	healthWindow      = 32   // recent runs a report examines
	healthObjective   = 0.99 // target SLO-attainment fraction
	defaultSLOSeconds = 60.0 // refresh-latency objective when the caller gives none
)

// NodeHealth compares one node's learned baseline against its latest
// observation.
type NodeHealth struct {
	Node                string  `json:"node"`
	Samples             int64   `json:"samples"`
	BaselineWallSeconds float64 `json:"baseline_wall_seconds"`
	LatestWallSeconds   float64 `json:"latest_wall_seconds"`
	WallZ               float64 `json:"wall_z"`
	BaselineRatio       float64 `json:"baseline_ratio,omitempty"`
	LatestRatio         float64 `json:"latest_ratio,omitempty"`
	Regressed           bool    `json:"regressed,omitempty"`
}

// Regression is one anomaly with the run it was detected in.
type Regression struct {
	RunID string `json:"run_id"`
	Anomaly
}

// Health verdicts, worst first.
const (
	VerdictFailing  = "failing"  // latest run did not succeed, or SLO attainment below objective
	VerdictDegraded = "degraded" // anomalies in the window
	VerdictHealthy  = "healthy"
	VerdictUnknown  = "unknown" // no runs recorded
)

// Health is the operational state of one pipeline over the ledger window.
type Health struct {
	Pipeline   string `json:"pipeline"`
	WindowRuns int    `json:"window_runs"`
	Succeeded  int    `json:"succeeded"`
	Failed     int    `json:"failed"`

	SLOSeconds    float64 `json:"slo_seconds"`
	SLOAttainment float64 `json:"slo_attainment"`
	Objective     float64 `json:"objective"`
	// BurnRate is (1−attainment)/(1−objective): 1.0 burns exactly the
	// error budget, >1 exhausts it early.
	BurnRate float64 `json:"burn_rate"`

	WallP50Seconds      float64 `json:"wall_p50_seconds"`
	WallP99Seconds      float64 `json:"wall_p99_seconds"`
	QueueWaitP50Seconds float64 `json:"queue_wait_p50_seconds"`
	QueueWaitP99Seconds float64 `json:"queue_wait_p99_seconds"`

	// MispredictRatio is the learned mean |reserved−actual|/reserved.
	MispredictRatio float64 `json:"mispredict_ratio"`

	AnomalyCount    int            `json:"anomaly_count"`
	AnomaliesByKind map[string]int `json:"anomalies_by_kind,omitempty"`
	TopRegressions  []Regression   `json:"top_regressions,omitempty"`

	Nodes []NodeHealth `json:"nodes,omitempty"`

	LastRunID   string `json:"last_run_id,omitempty"`
	LastOutcome string `json:"last_outcome,omitempty"`
	Verdict     string `json:"verdict"`
}

// Health reports SLO attainment, burn rate, baseline-vs-latest per node,
// top regressions and the misprediction ratio for one pipeline over its
// healthWindow most recent runs. A succeeded run within sloSeconds counts
// toward attainment; sloSeconds <= 0 means defaultSLOSeconds. The report
// is read under one hold of the ledger's lock.
func (l *Ledger) Health(pipeline string, sloSeconds float64) Health {
	if sloSeconds <= 0 {
		sloSeconds = defaultSLOSeconds
	}
	h := Health{
		Pipeline:   pipeline,
		SLOSeconds: sloSeconds,
		Objective:  healthObjective,
		Verdict:    VerdictUnknown,
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	window := l.runsLocked(Filter{Pipeline: pipeline, Limit: healthWindow}) // newest first
	h.WindowRuns = len(window)
	if len(window) == 0 {
		return h
	}
	h.LastRunID = window[0].RunID
	h.LastOutcome = window[0].Outcome

	var walls, queues []float64
	withinSLO := 0
	byKind := make(map[string]int)
	var regs []Regression
	for i := range window {
		s := &window[i]
		if s.Outcome == OutcomeSucceeded {
			h.Succeeded++
			walls = append(walls, s.WallSeconds)
			queues = append(queues, s.QueueWaitSeconds)
			if s.WallSeconds <= sloSeconds {
				withinSLO++
			}
		} else {
			h.Failed++
		}
		for _, a := range s.Anomalies {
			byKind[a.Kind]++
			regs = append(regs, Regression{RunID: s.RunID, Anomaly: a})
		}
	}
	h.SLOAttainment = float64(withinSLO) / float64(len(window))
	h.BurnRate = (1 - h.SLOAttainment) / (1 - healthObjective)
	h.WallP50Seconds = percentile(walls, 0.50)
	h.WallP99Seconds = percentile(walls, 0.99)
	h.QueueWaitP50Seconds = percentile(queues, 0.50)
	h.QueueWaitP99Seconds = percentile(queues, 0.99)
	h.MispredictRatio = l.mispredictLocked(pipeline)
	h.AnomalyCount = len(regs)
	if len(byKind) > 0 {
		h.AnomaliesByKind = byKind
	}
	sort.SliceStable(regs, func(i, j int) bool {
		return math.Abs(regs[i].Score) > math.Abs(regs[j].Score)
	})
	if len(regs) > 5 {
		regs = regs[:5]
	}
	h.TopRegressions = regs

	// Baseline vs latest per node, from the newest succeeded run.
	var latest *RunSummary
	for i := range window {
		if window[i].Outcome == OutcomeSucceeded {
			latest = &window[i]
			break
		}
	}
	if latest != nil {
		regressed := make(map[string]bool)
		for _, a := range latest.Anomalies {
			if a.Node != "" {
				regressed[a.Node] = true
			}
		}
		var base map[string]*nodeBaseline
		if pb := l.baselines[pipeline]; pb != nil {
			base = pb.nodes
		}
		for _, ns := range latest.Nodes {
			nh := NodeHealth{
				Node:              ns.Node,
				LatestWallSeconds: ns.WallSeconds,
				LatestRatio:       ns.Ratio,
				Regressed:         regressed[ns.Node],
			}
			if nb := base[ns.Node]; nb != nil {
				nh.Samples = nb.wall.N
				nh.BaselineWallSeconds = nb.wall.Mean
				nh.BaselineRatio = nb.ratio.Mean
				if nb.wall.Sigma() > 1e-12 {
					nh.WallZ = nb.wall.Z(ns.WallSeconds)
				}
			}
			h.Nodes = append(h.Nodes, nh)
		}
	}

	switch {
	case h.LastOutcome != OutcomeSucceeded || h.SLOAttainment < healthObjective:
		h.Verdict = VerdictFailing
	case h.AnomalyCount > 0:
		h.Verdict = VerdictDegraded
	default:
		h.Verdict = VerdictHealthy
	}
	return h
}

// percentile is the nearest-rank percentile of xs (not necessarily
// sorted); 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
