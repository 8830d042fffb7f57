// Package ledger is S/C's run history and operational judgment layer: a
// bounded in-memory ring (optionally NDJSON-persisted) of per-run
// summaries built from each run's record (exec.RunResult, by FromRun),
// per-(pipeline, node) baselines learned from that history with
// metrics.EWMA (the one learning rule, which the metadata store learns its
// compression ratios with too), and an anomaly detector that flags runs
// deviating from their own past — wall/bytes z-score regressions,
// compression-ratio collapses, eviction storms, kernel-fallback
// appearances, and admission misprediction (reserved vs actual peak
// catalog bytes, the paper's §III accounting finally checked after the
// fact). The detector's verdict doubles as the
// tail-sampling policy: exported traces are kept only for anomalous, slow
// or failed runs. A row needs no trace: the record holds every number it
// carries, and the critical path is telemetry's rule over the nodes' run
// windows. The detector's thresholds, the health window and
// objective, and the NDJSON size cap are documented constants (ledger.go,
// health.go); a Config says only where the history lives, how much of it
// to keep, and what "slow" means.
package ledger

import (
	"math"
	"time"

	"github.com/shortcircuit-db/sc/internal/exec"
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
	// SelfSeconds is the node's own run time; WaitSeconds is the gap behind
	// its latest-finishing DAG parent (critical-path decomposition).
	SelfSeconds     float64 `json:"self_seconds"`
	WaitSeconds     float64 `json:"wait_seconds"`
	OutputBytes     int64   `json:"output_bytes,omitempty"`
	EncodedBytes    int64   `json:"encoded_bytes,omitempty"`
	Ratio           float64 `json:"ratio,omitempty"` // raw bytes / encoded bytes
	KernelFallbacks int64   `json:"kernel_fallbacks,omitempty"`
	Flagged         bool    `json:"flagged,omitempty"`
	Critical        bool    `json:"critical,omitempty"` // on the longest blocking chain
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

// Meta carries the run fields the run record does not hold: identity,
// outcome, queue wait and the admission reservation. A zero Start or
// WallSeconds takes the record's own start and Total.
type Meta struct {
	RunID    string
	Pipeline string
	Tenant   string
	Outcome  string
	Start    time.Time

	WallSeconds      float64
	QueueWaitSeconds float64

	ReservedBytes int64

	EventsDropped int64
	Err           string
}

// FromRun builds one run's ledger row from its record and metadata:
// per-node wall, self and wait times and the critical chain from
// telemetry.NodeCriticalPath over the nodes' run windows, byte totals and
// compression ratios from the node and run counts, and the
// predicted-vs-actual peak accounting. A nil res, a run that never
// executed, gives the row of meta alone.
func FromRun(res *exec.RunResult, parents map[string][]string, meta Meta) RunSummary {
	s := RunSummary{
		RunID: meta.RunID, Pipeline: meta.Pipeline, Tenant: meta.Tenant,
		Outcome: meta.Outcome, Start: meta.Start,
		WallSeconds: meta.WallSeconds, QueueWaitSeconds: meta.QueueWaitSeconds,
		ReservedBytes: meta.ReservedBytes,
		EventsDropped: meta.EventsDropped, Error: meta.Err,
	}
	if s.Outcome == "" {
		s.Outcome = OutcomeSucceeded
	}
	if res != nil {
		s.ActualPeakBytes, s.FallbackWrites = res.PeakMemory, res.FallbackWrites
	}
	if s.ReservedBytes > 0 {
		s.Mispredict = math.Abs(float64(s.ReservedBytes-s.ActualPeakBytes)) / float64(s.ReservedBytes)
	}
	if res == nil {
		return s
	}
	if s.Start.IsZero() {
		s.Start = res.Start
	}
	if s.WallSeconds == 0 {
		s.WallSeconds = res.Total.Seconds()
	}
	s.DecodedBytes, s.MaterializedBytes, s.Evictions = res.DecodedBytes, res.MaterializedBytes, res.Evictions

	windows := make([]telemetry.NodeInterval, len(res.Nodes))
	byName := make(map[string]*exec.NodeMetrics, len(res.Nodes))
	for i := range res.Nodes {
		n := &res.Nodes[i]
		windows[i] = telemetry.NodeInterval{Node: n.Name, Start: n.Start, End: n.End}
		byName[n.Name] = n
	}
	cp := telemetry.NodeCriticalPath(s.Start, s.WallSeconds, windows, parents)
	s.CritPath, s.CritPathSeconds = cp.Chain, cp.ChainSeconds
	for _, c := range cp.Nodes { // in start order
		n := byName[c.Node]
		ns := NodeSummary{Node: n.Name, WallSeconds: c.SelfSeconds, SelfSeconds: c.SelfSeconds, WaitSeconds: c.WaitSeconds,
			OutputBytes: n.OutputBytes, EncodedBytes: n.EncodedSize, KernelFallbacks: n.Fallbacks,
			Flagged: n.Flagged, Critical: c.Critical}
		if n.OutputBytes > 0 && n.EncodedSize > 0 {
			ns.Ratio = float64(n.OutputBytes) / float64(n.EncodedSize)
		}
		s.OutputBytes += n.OutputBytes
		s.EncodedBytes += n.EncodedSize
		s.KernelFallbacks += n.Fallbacks
		s.Nodes = append(s.Nodes, ns)
	}
	return s
}

// Summarize builds the ledger row of a finished trace (a Collector.Spans
// snapshot, root first) through FromRun: the root span gives the run's
// start and wall time, each node span a record of the node's window,
// output and encoded bytes and flag. It reads no span events, so the run's
// decoded, materialized and evicted totals and kernel fallbacks stay zero.
func Summarize(spans []telemetry.Span, parents map[string][]string, meta Meta) RunSummary {
	if len(spans) == 0 {
		return FromRun(nil, parents, meta)
	}
	res := &exec.RunResult{Start: spans[0].Start, Total: spans[0].Duration()}
	for _, sp := range spans[1:] {
		if name := sp.StrAttr(telemetry.AttrNode); name != "" {
			out, _ := sp.Attr(telemetry.AttrOutputBytes)
			enc, _ := sp.Attr(telemetry.AttrEncodedBytes)
			flagged, _ := sp.Attr(telemetry.AttrFlagged)
			res.Nodes = append(res.Nodes, exec.NodeMetrics{Name: name, Start: sp.Start, End: sp.End,
				OutputBytes: out.Int, EncodedSize: enc.Int, Flagged: flagged.Bool})
		}
	}
	s := FromRun(res, parents, meta)
	s.TraceID = spans[0].TraceID.String()
	return s
}
