// Package ledger is S/C's run history and operational judgment layer: a
// bounded in-memory ring (optionally NDJSON-persisted) of per-run
// summaries distilled from the obs stream and telemetry.Collector output,
// per-(pipeline, node) EWMA+variance baselines learned from that history,
// and an anomaly detector that flags runs deviating from their own past —
// wall/bytes z-score regressions, compression-ratio collapses, eviction
// storms, kernel-fallback appearances, and admission misprediction
// (reserved vs actual peak catalog bytes, the paper's §III accounting
// finally checked after the fact). The detector's verdict doubles as the
// tail-sampling policy: exported traces are kept only for anomalous, slow
// or failed runs. The span and event names Summarize reads are the
// constants the Collector writes them with (telemetry.Attr*, Event*,
// SpanQueueAdmission). The detector's thresholds, the health window and
// objective, and the NDJSON size cap are documented constants (ledger.go,
// health.go); a Config says only where the history lives, how much of it
// to keep, and what "slow" means.
package ledger

import (
	"math"
	"sort"
	"time"

	"github.com/shortcircuit-db/sc/internal/telemetry"
)

// Anomaly kinds the detector emits.
const (
	KindWallRegression  = "wall_regression"      // node wall time z-score above threshold
	KindBytesRegression = "bytes_regression"     // node output bytes z-score above threshold
	KindRatioCollapse   = "ratio_collapse"       // node compression ratio fell below a fraction of baseline
	KindEvictionStorm   = "eviction_storm"       // run evictions z-score above threshold
	KindKernelFallback  = "kernel_fallback"      // kernels reverted to the row engine on a node that never did
	KindMispredict      = "admission_mispredict" // the reservation proved too small: the run fell back to blocking writes
)

// Outcome values mirror the gateway run states; the Refresher and scrun
// use succeeded/failed/canceled.
const (
	OutcomeSucceeded = "succeeded"
	OutcomeFailed    = "failed"
	OutcomeCanceled  = "canceled"
	OutcomeExpired   = "expired"
)

// Anomaly is one detected deviation from the learned baseline.
type Anomaly struct {
	Kind string `json:"kind"`
	// Node names the regressed node; empty for run-level anomalies.
	Node string `json:"node,omitempty"`
	// Score is the z-score against the baseline, where applicable.
	Score float64 `json:"score,omitempty"`
	// Observed is this run's value (seconds, bytes, ratio, count — per Kind).
	Observed float64 `json:"observed"`
	// Baseline is the EWMA mean the observation was judged against.
	Baseline float64 `json:"baseline,omitempty"`
	Detail   string  `json:"detail,omitempty"`
}

// NodeSummary is one executed node's slice of a run summary.
type NodeSummary struct {
	Node        string  `json:"node"`
	WallSeconds float64 `json:"wall_seconds"`
	// SelfSeconds is the node span's own duration; WaitSeconds is the gap
	// behind its latest-finishing DAG parent (critical-path decomposition).
	SelfSeconds     float64 `json:"self_seconds"`
	WaitSeconds     float64 `json:"wait_seconds"`
	OutputBytes     int64   `json:"output_bytes,omitempty"`
	EncodedBytes    int64   `json:"encoded_bytes,omitempty"`
	Ratio           float64 `json:"ratio,omitempty"` // raw bytes / encoded bytes
	KernelFallbacks int64   `json:"kernel_fallbacks,omitempty"`
	Flagged         bool    `json:"flagged,omitempty"`
	Critical        bool    `json:"critical,omitempty"` // on the longest blocking chain

	start time.Time // span start, for execution-order sorting
}

// RunSummary is the ledger's record of one refresh (or simulation) run —
// the per-run fields an operator needs after the trace itself is gone.
type RunSummary struct {
	RunID    string    `json:"run_id"`
	Pipeline string    `json:"pipeline"`
	Tenant   string    `json:"tenant,omitempty"`
	Outcome  string    `json:"outcome"`
	TraceID  string    `json:"trace_id,omitempty"`
	Start    time.Time `json:"start"`

	WallSeconds      float64 `json:"wall_seconds"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`

	// ReservedBytes is what admission predicted and reserved
	// (PeakMemoryUsage × headroom); ActualPeakBytes is the catalog's real
	// high-water mark. Mispredict is |reserved − actual| / reserved.
	ReservedBytes   int64   `json:"reserved_bytes,omitempty"`
	ActualPeakBytes int64   `json:"actual_peak_bytes,omitempty"`
	Mispredict      float64 `json:"mispredict,omitempty"`
	FallbackWrites  int     `json:"fallback_writes,omitempty"`

	OutputBytes     int64 `json:"output_bytes,omitempty"`
	EncodedBytes    int64 `json:"encoded_bytes,omitempty"`
	DecodedBytes    int64 `json:"decoded_bytes,omitempty"`
	Evictions       int64 `json:"evictions,omitempty"`
	KernelFallbacks int64 `json:"kernel_fallbacks,omitempty"`
	EventsDropped   int64 `json:"events_dropped,omitempty"`
	// MaterializedBytes is what the run wrote to external storage, behind
	// flagged nodes or in the foreground.
	MaterializedBytes int64 `json:"materialized_bytes,omitempty"`

	CritPath        []string `json:"crit_path,omitempty"`
	CritPathSeconds float64  `json:"crit_path_seconds,omitempty"`

	Nodes     []NodeSummary `json:"nodes,omitempty"`
	Anomalies []Anomaly     `json:"anomalies,omitempty"`
	Error     string        `json:"error,omitempty"`
}

// Anomalous reports whether the detector flagged the run.
func (s *RunSummary) Anomalous() bool { return len(s.Anomalies) > 0 }

// Meta carries the run fields that do not live on the trace (or that
// override what Summarize would derive from it): identity, outcome, and
// the admission accounting.
type Meta struct {
	RunID    string
	Pipeline string
	Tenant   string
	Outcome  string
	Start    time.Time

	WallSeconds      float64
	QueueWaitSeconds float64

	ReservedBytes   int64
	ActualPeakBytes int64
	FallbackWrites  int

	EventsDropped int64
	Err           string
}

// Summarize distills one run's trace (a Collector.Spans snapshot, root
// first) plus its metadata into the ledger record: per-node wall/self/wait
// from the critical-path analysis, decoded/encoded/materialized byte totals
// and compression ratios from the span events, and the predicted-vs-actual
// peak accounting from meta. Without spans the record is meta alone.
func Summarize(spans []telemetry.Span, parents map[string][]string, meta Meta) RunSummary {
	s := RunSummary{
		RunID: meta.RunID, Pipeline: meta.Pipeline, Tenant: meta.Tenant,
		Outcome: meta.Outcome, Start: meta.Start,
		WallSeconds: meta.WallSeconds, QueueWaitSeconds: meta.QueueWaitSeconds,
		ReservedBytes: meta.ReservedBytes, ActualPeakBytes: meta.ActualPeakBytes,
		FallbackWrites: meta.FallbackWrites,
		EventsDropped:  meta.EventsDropped, Error: meta.Err,
	}
	if s.Outcome == "" {
		s.Outcome = OutcomeSucceeded
	}
	if s.ReservedBytes > 0 {
		s.Mispredict = math.Abs(float64(s.ReservedBytes-s.ActualPeakBytes)) / float64(s.ReservedBytes)
	}
	if len(spans) == 0 {
		return s
	}
	root := spans[0]
	s.TraceID = root.TraceID.String()
	if s.RunID == "" {
		s.RunID = root.StrAttr(telemetry.AttrRunID)
	}
	if s.Start.IsZero() {
		s.Start = root.Start
	}
	if s.WallSeconds == 0 {
		s.WallSeconds = root.Duration().Seconds()
	}

	cp := telemetry.CriticalPath(spans, parents)
	s.CritPath = cp.Chain
	s.CritPathSeconds = cp.ChainSeconds
	waits := make(map[string]float64, len(cp.Nodes))
	critical := make(map[string]bool, len(cp.Nodes))
	for _, n := range cp.Nodes {
		waits[n.Node] = n.WaitSeconds
		critical[n.Node] = n.Critical
	}

	countEvents := func(evs []telemetry.SpanEvent, ns *NodeSummary) {
		for _, ev := range evs {
			switch ev.Name {
			case telemetry.EventEncodeDone:
				s.EncodedBytes += eventInt(ev, telemetry.AttrEncodedBytes)
				if ns != nil {
					if r := eventFloat(ev, telemetry.AttrRatio); r > 0 {
						ns.Ratio = r
					}
				}
			case telemetry.EventDecodeDone:
				s.DecodedBytes += eventInt(ev, telemetry.AttrBytes)
			case telemetry.EventMaterialized:
				s.MaterializedBytes += eventInt(ev, telemetry.AttrBytes)
			case telemetry.EventEvicted:
				s.Evictions++
			case telemetry.EventKernelDone:
				if ns != nil {
					ns.KernelFallbacks += eventInt(ev, telemetry.AttrKernelFallbacks)
				}
			}
		}
	}
	countEvents(root.Events, nil)
	for _, sp := range spans[1:] {
		if sp.Name == telemetry.SpanQueueAdmission && s.QueueWaitSeconds == 0 {
			s.QueueWaitSeconds = sp.Duration().Seconds()
		}
		node := sp.StrAttr(telemetry.AttrNode)
		if node == "" {
			countEvents(sp.Events, nil)
			continue
		}
		ns := NodeSummary{
			Node:        node,
			WallSeconds: sp.Duration().Seconds(),
			SelfSeconds: sp.Duration().Seconds(),
			WaitSeconds: waits[node],
			Critical:    critical[node],
			start:       sp.Start,
		}
		if a, ok := sp.Attr(telemetry.AttrOutputBytes); ok {
			ns.OutputBytes = a.Int
		}
		if a, ok := sp.Attr(telemetry.AttrEncodedBytes); ok {
			ns.EncodedBytes = a.Int
		}
		if a, ok := sp.Attr(telemetry.AttrFlagged); ok {
			ns.Flagged = a.Bool
		}
		countEvents(sp.Events, &ns)
		if ns.Ratio == 0 && ns.EncodedBytes > 0 && ns.OutputBytes > 0 {
			ns.Ratio = float64(ns.OutputBytes) / float64(ns.EncodedBytes)
		}
		s.OutputBytes += ns.OutputBytes
		s.KernelFallbacks += ns.KernelFallbacks
		s.Nodes = append(s.Nodes, ns)
	}
	sort.Slice(s.Nodes, func(i, j int) bool {
		if !s.Nodes[i].start.Equal(s.Nodes[j].start) {
			return s.Nodes[i].start.Before(s.Nodes[j].start)
		}
		return s.Nodes[i].Node < s.Nodes[j].Node
	})
	return s
}

func eventInt(ev telemetry.SpanEvent, key string) int64 {
	for _, a := range ev.Attrs {
		if a.Key == key && a.Type == telemetry.AttrInt {
			return a.Int
		}
	}
	return 0
}

func eventFloat(ev telemetry.SpanEvent, key string) float64 {
	for _, a := range ev.Attrs {
		if a.Key == key && a.Type == telemetry.AttrFloat {
			return a.Flt
		}
	}
	return 0
}
