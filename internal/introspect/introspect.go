// Package introspect is the live state-observability layer over the S/C
// engine: point-in-time reports of what occupies the bounded Memory
// Catalog (per-entry codec mix, eviction rank under the cost-model score,
// eviction timeline), who holds the scheduler's tokens and the catalog's
// byte reservations, and — the paper's core question — why each MV was or was
// not flagged for materialization under the byte budget, with the marginal
// byte cost that decided it and what would have to change to flip the
// decision.
//
// The gateway serves these reports at GET /v1/state/catalog,
// GET /v1/state/sched and GET /v1/pipelines/{p}/explain; the library
// facade exposes the explain through sc.Refresher.Explain. The sub-package
// alert pushes health transitions and ledger anomalies to a webhook.
package introspect

import (
	"fmt"
	"sort"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/sched"
)

// CatalogEntry is one resident Memory Catalog entry with its owner and
// its standing under the cost-model score.
type CatalogEntry struct {
	Pipeline string `json:"pipeline,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	RunID    string `json:"run_id,omitempty"`
	memcat.EntryInfo
	LastAccessAgeSeconds float64 `json:"last_access_age_seconds"`
	// ScoreSeconds is the cost-model speedup score of the producing node
	// under the pipeline's current learned sizes, when known.
	ScoreSeconds float64 `json:"score_seconds,omitempty"`
	// EvictionRank orders residents by score density (score per accounted
	// byte), ascending: rank 1 is what the cost model values least and
	// would sacrifice first under budget pressure.
	EvictionRank int `json:"eviction_rank"`
}

// EvictionEvent is one entry leaving a run catalog — a run's Evicted event —
// attributed to the run that removed it.
type EvictionEvent struct {
	Pipeline string    `json:"pipeline,omitempty"`
	Tenant   string    `json:"tenant,omitempty"`
	RunID    string    `json:"run_id,omitempty"`
	Name     string    `json:"name"`
	Bytes    int64     `json:"bytes"`
	Reason   string    `json:"reason"` // obs.EvictRelease or obs.EvictSweep
	At       time.Time `json:"at"`
}

// CatalogReport is the body of GET /v1/state/catalog: the shared budget,
// every resident entry across all live run catalogs, the catalog-wide
// codec composition, and a bounded eviction timeline, oldest first, beside
// EvictionsSeen, the count of every eviction. EntryBytes always equals
// UsedBytes — the consistency the metrics gauges pin.
type CatalogReport struct {
	At            time.Time        `json:"at"`
	BudgetBytes   int64            `json:"budget_bytes"`
	ReservedBytes int64            `json:"reserved_bytes"`
	UsedBytes     int64            `json:"used_bytes"`
	PeakUsedBytes int64            `json:"peak_used_bytes"`
	EntryBytes    int64            `json:"entry_bytes"`
	EntryCount    int              `json:"entry_count"`
	Entries       []CatalogEntry   `json:"entries"`
	CodecChunks   map[string]int   `json:"codec_chunks,omitempty"`
	CodecBytes    map[string]int64 `json:"codec_bytes,omitempty"`
	Evictions     []EvictionEvent  `json:"evictions"`
	EvictionsSeen int64            `json:"evictions_seen"`
}

// FinishCatalogReport derives the aggregate fields from the collected
// entries — totals, codec composition — and assigns eviction ranks.
// Callers fill the budget fields and the entry/eviction lists first.
func FinishCatalogReport(r *CatalogReport) {
	r.EntryCount = len(r.Entries)
	r.CodecChunks = make(map[string]int)
	r.CodecBytes = make(map[string]int64)
	for i := range r.Entries {
		e := &r.Entries[i]
		r.EntryBytes += e.SizeBytes
		for codec, n := range e.CodecChunks {
			r.CodecChunks[codec] += n
		}
		for codec, b := range e.CodecBytes {
			r.CodecBytes[codec] += b
		}
	}
	rankEntries(r.Entries)
	if r.Entries == nil {
		r.Entries = []CatalogEntry{}
	}
	if r.Evictions == nil {
		r.Evictions = []EvictionEvent{}
	}
}

// rankEntries assigns EvictionRank by ascending score density: the entry
// the cost model values least per byte ranks 1 (first to sacrifice).
// Ties, and entries with no known score, order by name for determinism.
func rankEntries(entries []CatalogEntry) {
	idx := make([]int, len(entries))
	for i := range idx {
		idx[i] = i
	}
	density := func(i int) float64 {
		e := &entries[i]
		if e.SizeBytes <= 0 {
			return 0
		}
		return e.ScoreSeconds / float64(e.SizeBytes)
	}
	sort.Slice(idx, func(a, b int) bool {
		da, db := density(idx[a]), density(idx[b])
		if da != db {
			return da < db
		}
		return entries[idx[a]].Name < entries[idx[b]].Name
	})
	for rank, i := range idx {
		entries[i].EvictionRank = rank + 1
	}
}

// QueueEntry is one trigger waiting for admission, with why the pump
// could not admit it the last time it reached the queue head.
type QueueEntry struct {
	Position  int       `json:"position"`
	Tenant    string    `json:"tenant"`
	Pipeline  string    `json:"pipeline"`
	NeedBytes int64     `json:"need_bytes"`
	Tokens    int       `json:"tokens"`
	Deadline  time.Time `json:"deadline,omitzero"`
	BlockedOn string    `json:"blocked_on,omitempty"`
}

// TenantState is one tenant's slice of the shared budget.
type TenantState struct {
	Tenant        string `json:"tenant"`
	SliceBytes    int64  `json:"slice_bytes"`
	ReservedBytes int64  `json:"reserved_bytes"`
}

// SchedReport is the body of GET /v1/state/sched: the scheduler-wide
// token pool, admission's committed tokens and reserved catalog bytes, and
// the current admission queue with per-entry blocking reasons.
type SchedReport struct {
	At time.Time `json:"at"`
	sched.Snapshot
	Committed int `json:"tokens_committed"` // admission commitments
	// Byte side of admission: the shared catalog budget.
	BudgetBytes         int64         `json:"budget_bytes"`
	ReservedCatalogByte int64         `json:"reserved_catalog_bytes"`
	QueueDepth          int           `json:"queue_depth"`
	Queue               []QueueEntry  `json:"queue"`
	Tenants             []TenantState `json:"tenants,omitempty"`
}

// FlagDecision explains one MV's standing in the bounded-memory knapsack.
type FlagDecision struct {
	Node    string `json:"node"`
	Flagged bool   `json:"flagged"`
	// Form is how the plan keeps the node's output in the Memory Catalog:
	// "none" (unflagged), "rows", or "serialized" — the bytes it is written
	// to storage as, which the optimizer's second chance picks for a node
	// the knapsack left out and whose serialized bytes still fit.
	// ChargedBytes is what that form occupies there; 0 when unflagged.
	Form         string `json:"form"`
	ChargedBytes int64  `json:"charged_bytes"`
	// Class places the node in Algorithm 1's partition: "excluded" (its
	// size exceeds the whole budget, or its score is non-positive),
	// "free" (it appears in no binding constraint set, so flagging it can
	// never violate the budget — flagged unconditionally), or
	// "candidate" (it competed in the knapsack).
	Class string `json:"class"`
	// ScoreSeconds is the sized speedup score t_i the knapsack maximized,
	// split into what children save reading from memory and what the node
	// saves replacing its blocking write (as observed, when the last run
	// measured one): the two sum to the score, or the score is 0 when the
	// sum is negative.
	ScoreSeconds     float64 `json:"score_seconds"`
	ReadSaveSeconds  float64 `json:"read_save_seconds"`
	WriteSaveSeconds float64 `json:"write_save_seconds"`
	// RawBytes is the uncompressed output footprint; SizedBytes is what
	// the knapsack actually weighed (EWMA-learned encoded bytes with
	// encoding on, raw bytes otherwise); PredictedBytes is the static
	// model prior before per-node learning.
	RawBytes       int64 `json:"raw_bytes"`
	SizedBytes     int64 `json:"sized_bytes"`
	PredictedBytes int64 `json:"predicted_bytes,omitempty"`
	// MarginalBytes is the byte cost that decided the flag: the budget the
	// node occupies (flagged) or would occupy (unflagged) during its
	// residency window, at the window's tightest step.
	MarginalBytes int64 `json:"marginal_bytes"`
	// SlackBytes, for flagged nodes: how much the budget could shrink
	// before the node (or a peer sharing its window) no longer fits.
	SlackBytes int64 `json:"slack_bytes,omitempty"`
	// FlipBytes, for unflagged candidates that do not fit: the minimum
	// budget increase (equivalently, output-size decrease) that would make
	// the node admissible during its window. Zero means it fits but lost
	// the knapsack on score.
	FlipBytes int64 `json:"flip_bytes,omitempty"`
	// Flip says, in words, what would have to change to flip the decision.
	Flip string `json:"flip"`
}

// formNone is FlagDecision.Form for an unflagged node; a flagged node's is
// its core.Form by name.
const formNone = "none"

// formName names the form plan keeps node id resident in.
func formName(plan *core.Plan, id dag.NodeID) string {
	if !plan.Flagged[id] {
		return formNone
	}
	return plan.FormOf(id).String()
}

// ExplainReport is the body of GET /v1/pipelines/{p}/explain and of
// sc.Refresher.Explain: the flag decision for every MV in the DAG under
// the current learned sizes and the cost-model scores.
type ExplainReport struct {
	Pipeline          string         `json:"pipeline,omitempty"`
	MemoryBytes       int64          `json:"memory_bytes"`
	PeakBytes         int64          `json:"peak_bytes"`
	HeadroomBytes     int64          `json:"headroom_bytes"`
	Nodes             int            `json:"nodes"`
	FlaggedCount      int            `json:"flagged_count"`
	TotalScoreSeconds float64        `json:"total_score_seconds"`
	Encoding          bool           `json:"encoding"`
	Order             []string       `json:"order"`
	Decisions         []FlagDecision `json:"decisions"`
}

// NodePricing is what the planner priced one node with when it built the
// Problem: the bytes it assumed and the two terms of the §IV score, whose
// sum (0 when negative) is Problem.Scores for that node.
type NodePricing struct {
	// RawBytes is the uncompressed output footprint (the memory-access
	// size of the score model). PredictedBytes is the static model prior
	// for encoded bytes before per-node learning; 0 without encoding.
	RawBytes       int64
	PredictedBytes int64
	// ReadSaveSeconds is what the node's children save reading it from
	// memory; WriteSaveSeconds what the node saves by not blocking on its
	// write — the observed blocking write when the last run measured one.
	ReadSaveSeconds  float64
	WriteSaveSeconds float64
}

// ExplainInput carries everything Explain needs: the solved problem (whose
// graph names the MVs) and plan, and what each node was priced with, by
// node id. Encoding reports whether Problem.Sizes are encoded bytes.
type ExplainInput struct {
	Pipeline string
	Problem  *core.Problem
	Plan     *core.Plan
	Pricing  []NodePricing
	Encoding bool
}

// Explain reconstructs, for every MV, why the solved plan flagged or
// skipped it: the sized score, the byte cost at the node's residency
// window, and the budget change that would flip the decision. It is pure
// analysis — nothing about the plan is re-decided.
func Explain(in ExplainInput) *ExplainReport {
	p, plan := in.Problem, in.Plan
	n := p.G.Len()
	rep := &ExplainReport{
		Pipeline:    in.Pipeline,
		MemoryBytes: p.Memory,
		PeakBytes:   core.PeakMemoryUsage(p, plan),
		Nodes:       n,
		Encoding:    in.Encoding,
		Decisions:   make([]FlagDecision, 0, n),
	}
	rep.HeadroomBytes = p.Memory - rep.PeakBytes

	class := make([]string, n)
	cs := core.GetConstraints(p, plan.Order)
	for _, id := range cs.Excluded {
		class[id] = "excluded"
	}
	for _, id := range cs.Free {
		class[id] = "free"
	}
	for _, id := range cs.Candidates {
		class[id] = "candidate"
	}

	timeline := core.MemoryTimeline(p, plan)
	pos := core.Positions(plan.Order)
	rel := core.ReleasePositions(p.G, plan.Order)

	for _, id := range plan.Order {
		rep.Order = append(rep.Order, p.G.Name(id))
	}
	for _, id := range plan.Order {
		i := int(id)
		d := FlagDecision{
			Node:             p.G.Name(id),
			Flagged:          plan.Flagged[i],
			Form:             formName(plan, id),
			Class:            class[i],
			ScoreSeconds:     p.Scores[i],
			ReadSaveSeconds:  in.Pricing[i].ReadSaveSeconds,
			WriteSaveSeconds: in.Pricing[i].WriteSaveSeconds,
			RawBytes:         in.Pricing[i].RawBytes,
			SizedBytes:       p.Sizes[i],
			PredictedBytes:   in.Pricing[i].PredictedBytes,
		}

		// The tightest step of the node's residency window decides the
		// marginal byte cost: resident is what the window already holds
		// (including the node itself when flagged).
		var resident int64
		for t := pos[i]; t <= rel[i] && t < n; t++ {
			if timeline[t] > resident {
				resident = timeline[t]
			}
		}
		d.MarginalBytes = p.ResidentSize(plan, id)
		switch {
		case plan.Flagged[i]:
			d.ChargedBytes = d.MarginalBytes
			d.SlackBytes = p.Memory - resident
			d.Flip = fmt.Sprintf(
				"stays flagged while the budget holds; a cut of more than %d bytes during steps %d-%d forces it (or a window peer) out",
				d.SlackBytes, pos[i], rel[i])
			if plan.FormOf(id) == core.Serialized {
				d.Flip = fmt.Sprintf(
					"the knapsack left its %d bytes of rows out; kept as its %d serialized bytes, which each child decodes, while those fit: a cut of more than %d bytes during steps %d-%d forces it back to storage",
					p.Sizes[i], d.ChargedBytes, d.SlackBytes, pos[i], rel[i])
			} else if d.Class == "free" {
				d.Flip = "flagged unconditionally: it shares no binding memory window with other candidates"
			}
		case d.Class == "excluded" && p.Scores[i] <= 0:
			d.Flip = "flagging saves no time under the cost model; a larger output or more readers would give it a positive score"
		case d.Class == "excluded":
			d.FlipBytes = p.Sizes[i] - p.Memory
			d.Flip = fmt.Sprintf(
				"its %d bytes exceed the whole %d-byte budget; needs the budget raised (or the output shrunk) by %d bytes to even compete",
				p.Sizes[i], p.Memory, d.FlipBytes)
		default:
			over := resident + p.Sizes[i] - p.Memory
			if over > 0 {
				d.FlipBytes = over
				d.Flip = fmt.Sprintf(
					"does not fit: flagging it would overrun the budget by %d bytes at its tightest step; raise the budget (or shrink co-resident outputs) by that much to flip",
					over)
			} else {
				d.Flip = fmt.Sprintf(
					"fits (%d bytes free at its tightest step) but lost the knapsack on score; it flips when its score outgrows a chosen window peer's",
					p.Memory-resident-p.Sizes[i])
			}
		}
		if d.Flagged {
			rep.FlaggedCount++
			rep.TotalScoreSeconds += p.Scores[i]
		}
		rep.Decisions = append(rep.Decisions, d)
	}
	return rep
}
