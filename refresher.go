package sc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/introspect/alert"
	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/metrics"
	"github.com/shortcircuit-db/sc/internal/session"
	"github.com/shortcircuit-db/sc/internal/sim"
	"github.com/shortcircuit-db/sc/internal/telemetry"
)

// Refresher is a long-lived MV refresh session: it executes refresh runs on
// the real engine, records execution metadata (§III-A), and re-optimizes
// the plan from what it observed, so recurring pipelines improve run over
// run. All methods honor context cancellation and deadlines, and a
// Refresher is safe for concurrent use (runs are serialized internally at
// the planning level; the Controller parallelizes within a run when
// WithConcurrency is set).
type Refresher struct {
	pipe *session.Pipeline
	fin  session.Finisher // ledger, alerts, exporter; all nil without their options
	cfg  *config

	runSeq atomic.Int64 // run counter feeding telemetry run IDs

	mu        sync.Mutex
	plan      *Plan
	stats     *Stats
	lastTrace *RunTrace
}

// New builds a refresh session for the given MVs over a store holding the
// base tables. Dependencies are extracted from the SQL statements. See the
// With* options for memory budget, strategies, observation and concurrency.
func New(mvs []MV, store Store, opts ...Option) (*Refresher, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if store == nil {
		return nil, errors.New("sc: nil store")
	}
	if len(mvs) == 0 {
		return nil, errors.New("sc: no MVs declared")
	}
	nodes := make([]exec.NodeSpec, len(mvs))
	for i, mv := range mvs {
		nodes[i] = exec.NodeSpec{Name: mv.Name, SQL: mv.SQL}
	}
	pipe, err := session.NewPipeline(sessionPipeline, nodes, store)
	if err != nil {
		return nil, err
	}
	pipe.Encoding = cfg.encoding
	pipe.Device = cfg.device
	pipe.Concurrency = cfg.concurrency
	r := &Refresher{pipe: pipe, cfg: cfg}
	r.fin.Exporter = cfg.traceExporter
	if cfg.ledger {
		if r.fin.Ledger, err = ledger.New(ledger.Config{Path: cfg.ledgerPath}); err != nil {
			return nil, err
		}
	}
	if cfg.alertURL != "" {
		r.fin.Alerts = alert.New(alert.Config{URL: cfg.alertURL, Cooldown: cfg.alertCooldown})
	}
	return r, nil
}

// sessionPipeline names a Refresher's pipeline in its ledger rows,
// baselines and alerts.
const sessionPipeline = "session"

// Close drains the session's push surfaces: pending alert webhook
// deliveries are flushed and the ledger (and its NDJSON file, if any) is
// closed. A Refresher without WithAlerts/WithLedger needs no Close.
func (r *Refresher) Close() error {
	if r.fin.Alerts != nil {
		r.fin.Alerts.Close()
	}
	if r.fin.Ledger != nil {
		return r.fin.Ledger.Close()
	}
	return nil
}

// Graph exposes the extracted dependency graph.
func (r *Refresher) Graph() *dag.Graph { return r.pipe.Graph }

// Metrics exposes the execution-metadata store accumulated across runs.
func (r *Refresher) Metrics() *metrics.Store { return r.pipe.Metrics }

// Plan returns the current refresh plan, or nil before the first
// optimization.
func (r *Refresher) Plan() *Plan {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.plan == nil {
		return nil
	}
	return r.plan.Clone()
}

// Stats returns the optimizer stats of the current plan, or nil before the
// first optimization.
func (r *Refresher) Stats() *Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stats == nil {
		return nil
	}
	st := *r.stats
	return &st
}

// Problem derives the session's current optimization problem: sizes from
// the latest observations (1 MB for never-observed nodes), scores
// from the §IV model under the session's device profile. With WithEncoding
// the knapsack weighs nodes at their compressed footprint and the disk
// terms of the score model move encoded bytes, so compression genuinely
// changes which nodes get flagged and in which order the DAG runs. A serial
// row-path session (WithConcurrency(1), no WithEncoding) also offers each
// observed node's serialized size, at which Optimize may keep a node the
// knapsack left out.
func (r *Refresher) Problem() *Problem { return r.pipe.Problem(r.cfg.memory).Problem }

// Optimize re-plans the session from the observed execution metadata and
// returns the new plan, which subsequent Run/Refresh calls execute.
func (r *Refresher) Optimize(ctx context.Context) (*Plan, *Stats, error) {
	_, plan, stats, err := r.pipe.Plan(ctx, r.cfg.memory, r.cfg.observer)
	if err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	r.plan = plan.Clone()
	st := *stats
	r.stats = &st
	r.mu.Unlock()
	return plan, stats, nil
}

// Run executes one refresh with the session's current plan (the
// unoptimized topological baseline before the first Optimize), recording
// execution metadata for future planning. When ctx is cancelled mid-run the
// partial result of the completed nodes is returned with ctx.Err().
func (r *Refresher) Run(ctx context.Context) (*RunResult, error) {
	return r.RunPlan(ctx, r.Plan())
}

// baselinePlan is the unoptimized default: topological order, nothing kept
// in memory.
func (r *Refresher) baselinePlan() (*Plan, error) {
	topo, err := r.pipe.Graph.TopoSort()
	if err != nil {
		return nil, err
	}
	return &Plan{Order: topo, Flagged: make([]bool, r.pipe.Graph.Len())}, nil
}

// RunPlan executes one refresh following an explicit plan. A nil plan means
// the unoptimized baseline: topological order, nothing kept in memory.
func (r *Refresher) RunPlan(ctx context.Context, plan *Plan) (*RunResult, error) {
	if plan == nil {
		var err error
		if plan, err = r.baselinePlan(); err != nil {
			return nil, err
		}
	}
	var col *telemetry.Collector
	var runID string
	if r.cfg.tracing {
		runID = telemetry.RunID(r.runSeq.Add(1))
		col = r.pipe.OpenTrace(runID, time.Time{}, telemetry.SpanContext{})
	}
	res, err := r.pipe.Run(ctx, plan, session.RunEnv{
		Mem:          memcat.New(r.cfg.memory),
		ParallelScan: r.cfg.parallelScan,
		RunID:        runID,
		Trace:        col,
		Observer:     r.cfg.observer,
	})
	if col == nil { // no WithTelemetry/WithLedger/WithAlerts: nothing to finish
		return res, err
	}
	meta := ledger.Meta{RunID: runID, Outcome: ledger.OutcomeSucceeded, ReservedBytes: r.cfg.memory}
	if err != nil {
		meta.Outcome = ledger.OutcomeFailed
		meta.Err = err.Error()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			meta.Outcome = ledger.OutcomeCanceled
		}
	}
	if res != nil {
		meta.ActualPeakBytes = res.PeakMemory
		meta.FallbackWrites = res.FallbackWrites
	}
	_, _, spans := r.fin.Finish(r.pipe, col, time.Time{}, meta)
	tr := &RunTrace{
		RunID:        runID,
		Spans:        spans,
		CriticalPath: telemetry.CriticalPath(spans, r.pipe.Parents),
	}
	r.mu.Lock()
	r.lastTrace = tr
	r.mu.Unlock()
	return res, err
}

// AlertStats reports the WithAlerts notifier's lifetime delivery counters
// (delivered, dropped, deduped, retried), or zeros without WithAlerts.
func (r *Refresher) AlertStats() AlertStats {
	if r.fin.Alerts == nil {
		return AlertStats{}
	}
	return r.fin.Alerts.Stats()
}

// Explain reconstructs, for every MV of the session, why the current plan
// flags or skips it under the bounded Memory Catalog budget: the form it is
// kept resident in and the bytes charged for it, the sized speedup score
// (split into read and write savings), raw vs
// EWMA-predicted encoded bytes, the marginal byte cost at the node's
// residency window that decided the flag, and what would flip the
// decision. It explains the plan the next Run executes — the unoptimized
// baseline, nothing flagged, before the first Optimize — and re-decides
// nothing.
func (r *Refresher) Explain(ctx context.Context) (*ExplainReport, error) {
	plan := r.Plan()
	if plan == nil {
		var err error
		if plan, err = r.baselinePlan(); err != nil {
			return nil, err
		}
	}
	return r.pipe.Explain(r.pipe.Problem(r.cfg.memory), plan), nil
}

// History returns the session run ledger's summaries, newest first, or nil
// without WithLedger. An empty filter returns everything retained.
func (r *Refresher) History(f RunFilter) []RunSummary {
	if r.fin.Ledger == nil {
		return nil
	}
	return r.fin.Ledger.Runs(f)
}

// Baselines returns the ledger's learned per-node baselines, or nil without
// WithLedger.
func (r *Refresher) Baselines() []NodeBaseline {
	if r.fin.Ledger == nil {
		return nil
	}
	return r.fin.Ledger.Baselines(sessionPipeline)
}

// Refresh is the adaptive loop of §III-A in one call: execute a refresh
// with the current plan, feed the observed metadata back, and re-optimize
// for the next call. The returned result is the run that just executed; the
// improved plan takes effect on the next Refresh/Run.
func (r *Refresher) Refresh(ctx context.Context) (*RunResult, error) {
	res, err := r.Run(ctx)
	if err != nil {
		return res, err
	}
	if _, _, err := r.Optimize(ctx); err != nil {
		return res, err
	}
	return res, nil
}

// Simulate predicts a refresh run with the session's current plan on the
// calibrated discrete-event simulator, parameterized by the observed
// execution metadata (run at least once first for meaningful numbers) and
// the session's device profile. No real bytes move.
func (r *Refresher) Simulate(ctx context.Context) (*SimResult, error) {
	w := &sim.Workload{G: r.pipe.Graph}
	for i := 0; i < r.pipe.Graph.Len(); i++ {
		name := r.pipe.Graph.Name(dag.NodeID(i))
		node := sim.Node{Name: name, OutputBytes: session.SizeGuess}
		if o, ok := r.pipe.Metrics.Latest(name); ok {
			node.OutputBytes = o.OutputBytes
			node.ComputeSeconds = o.ComputeTime.Seconds()
		}
		// Base tables are always read from external storage; their encoded
		// sizes are what a refresh actually moves.
		for _, bt := range r.pipe.Base[i] {
			if sz, err := exec.TableSize(r.pipe.Store, bt); err == nil {
				node.BaseReadBytes += sz
			}
		}
		w.Nodes = append(w.Nodes, node)
	}
	plan := r.Plan()
	if plan == nil {
		var err error
		if plan, err = r.baselinePlan(); err != nil {
			return nil, err
		}
	}
	return sim.Run(ctx, w, plan, sim.Config{
		Device:   r.cfg.device,
		Memory:   r.cfg.memory,
		Observer: r.cfg.observer,
	})
}
