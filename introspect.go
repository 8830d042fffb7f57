package sc

import (
	"github.com/shortcircuit-db/sc/internal/introspect"
	"github.com/shortcircuit-db/sc/internal/introspect/alert"
)

// ExplainReport is the flagging-explain surface: for every MV of a
// session or gateway pipeline, whether the bounded-memory knapsack
// flagged it, its sized speedup score, raw vs predicted encoded bytes,
// the marginal byte cost that decided the flag, and what would flip the
// decision. Produced by Refresher.Explain, Gateway.ExplainPipeline and
// GET /v1/pipelines/{p}/explain.
type ExplainReport = introspect.ExplainReport

// FlagDecision is one MV's entry in an ExplainReport.
type FlagDecision = introspect.FlagDecision

// CatalogReport is the live Memory Catalog inspection served by the
// gateway at GET /v1/state/catalog: resident entries with codec mix and
// eviction rank under the cost-model score, catalog-wide codec
// composition, and the bounded eviction timeline.
type CatalogReport = introspect.CatalogReport

// CatalogEntry is one resident entry of a CatalogReport.
type CatalogEntry = introspect.CatalogEntry

// SchedReport is the scheduler snapshot served by the gateway at
// GET /v1/state/sched: the token pool, admission soft-commitments, the
// catalog pool's byte reservations, and the current queue with per-entry
// blocking reasons.
type SchedReport = introspect.SchedReport

// AlertEvent is one webhook alert payload: a ledger anomaly or a
// health-verdict transition, pushed by sessions built with WithAlerts and
// by gateways configured with AlertWebhook.
type AlertEvent = alert.Event

// AlertStats are an alert notifier's lifetime delivery counters.
type AlertStats = alert.Stats
