package sc

import "github.com/shortcircuit-db/sc/internal/ledger"

// RunSummary is one refresh run's ledger record: outcome, wall and queue
// time, per-node timing from the trace, byte and compression accounting,
// the critical path, predicted-vs-actual peak memory, and any anomalies
// the detector flagged against the learned baselines. Produced by sessions
// built with WithLedger (Refresher.History) and by the gateway
// (GET /v1/runs, Gateway.RunHistory).
type RunSummary = ledger.RunSummary

// RunFilter selects ledger history: exact pipeline/tenant/outcome matches,
// anomalous-only, and a result cap. The zero value selects everything.
type RunFilter = ledger.Filter

// NodeBaseline is a learned per-node EWMA baseline snapshot.
type NodeBaseline = ledger.NodeBaseline

// PipelineHealth is a pipeline's rolled-up health over the ledger window:
// SLO attainment and burn rate, latency percentiles, baseline-vs-latest
// per node, top regressions, misprediction ratio and a verdict. Served by
// the gateway at GET /v1/pipelines/{name}/health and via
// Gateway.PipelineHealth.
type PipelineHealth = ledger.Health
