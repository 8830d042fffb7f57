// Package session is the one way to plan, run and finish a refresh. A
// Pipeline owns a refresh DAG's persistent state — workload, store, learned
// execution metadata, and what it remembers from its previous run — and turns that state into the optimizer's problem, a
// solved plan, an explanation of a plan in the numbers the problem was
// priced with, and an executed run. Run records the execution
// metadata from the run's result, so a run nobody watches emits no events;
// the event stream exists for the watchers a caller names: the run's trace,
// which is also its event log, and the library's observer. A Finisher ends
// a traced run's observability lifecycle: trace, ledger row, alerts,
// export. sc.Refresher and the gateway differ only in what they put around
// these two: options and plan caching on one side, admission and the run
// state machine on the other.
package session

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/introspect"
	"github.com/shortcircuit-db/sc/internal/introspect/alert"
	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/metrics"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/opt"
	"github.com/shortcircuit-db/sc/internal/sched"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/telemetry"
)

// SizeGuess is the output-size assumption, in bytes, for nodes that have
// never been observed (the first run of a pipeline): optimistic, and
// replaced by the observation after one refresh.
const SizeGuess int64 = 1 << 20

// Pipeline is one refresh DAG with the state that outlives a run. The
// exported fields are set before the first run and read-only afterwards.
type Pipeline struct {
	// Name keys the pipeline's ledger rows, baselines and alerts.
	Name     string
	Workload *exec.Workload
	Graph    *dag.Graph
	Base     [][]string          // per node, the base tables its statement scans
	Parents  map[string][]string // node name -> DAG parent names
	Store    storage.Store
	Metrics  *metrics.Store // execution metadata learned across runs (§III-A)

	// Encoding switches every run onto the compressed path (chunked
	// outputs, lowered onto the kernels); nil keeps the row path.
	Encoding *encoding.Options
	Device   costmodel.DeviceProfile
	// Concurrency is each run's token budget (exec.Controller.Concurrency).
	// The planner reads it too: only at <= 1 do nodes run in exact plan
	// order, which is what makes the plan's peak memory a proof. With more
	// tokens a ready node starts by longest remaining path instead
	// (core.DispatchRank), and plan position only breaks ties.
	Concurrency int

	// What the pipeline remembers of its previous run: the health verdict
	// (alerts fire on transitions, not states). Living here, it dies with
	// the pipeline.
	mu          sync.Mutex
	lastVerdict string
}

// NewPipeline extracts the dependency DAG from the nodes' SQL and starts an
// empty metadata store. The caller sets the execution fields (Encoding,
// Device, Concurrency) before the first run.
func NewPipeline(name string, nodes []exec.NodeSpec, store storage.Store) (*Pipeline, error) {
	w := &exec.Workload{Nodes: nodes}
	g, base, err := w.BuildGraph()
	if err != nil {
		return nil, err
	}
	return &Pipeline{
		Name:     name,
		Workload: w,
		Graph:    g,
		Base:     base,
		Parents:  g.ParentNames(),
		Store:    store,
		Metrics:  metrics.NewStore(),
	}, nil
}

// Priced is the pipeline's current knapsack together with what each node
// was priced with, by node id, so an explanation reports the numbers the
// optimizer actually saw.
type Priced struct {
	*core.Problem
	Pricing []introspect.NodePricing
}

// Problem derives the pipeline's current knapsack under a memory budget:
// sizes from the latest observations (SizeGuess for never-observed nodes),
// scores from the §IV model under the device profile, with the node's own
// saving replaced by the blocking write its last run observed (none when
// that run flagged it). With Encoding the knapsack weighs nodes at their
// learned compressed footprint and the disk terms of the score move encoded
// bytes, so compression genuinely changes which nodes get flagged and in
// which order the DAG runs.
//
// On the row path under serial dispatch the problem also offers each
// observed node's serialized bytes as a second, smaller residency form
// (core.Problem.SerializedSizes), which opt.Solve's second chance takes for
// nodes the knapsack left out. It is offered nowhere else: with Encoding the
// catalog entry is already the compact form, and with more than one token
// the dispatcher starts nodes by longest remaining path and beside one
// another, not in plan order, so a plan that fills the budget to the byte on
// paper displaces plain residents in practice.
func (p *Pipeline) Problem(memory int64) *Priced {
	nodes := p.Metrics.Nodes(p.Graph, SizeGuess)
	raw, disk := make([]int64, len(nodes)), make([]int64, len(nodes))
	for i, n := range nodes {
		raw[i], disk[i] = n.Bytes, n.Bytes
		if p.Encoding != nil {
			disk[i] = n.Encoded // Memory Catalog holds compressed entries
		}
	}
	pr := &Priced{
		Problem: &core.Problem{G: p.Graph, Sizes: disk, Scores: make([]float64, len(raw)), Memory: memory},
		Pricing: make([]introspect.NodePricing, len(raw)),
	}
	if p.Encoding == nil && p.Concurrency <= 1 {
		pr.SerializedSizes = append([]int64(nil), raw...) // no smaller form known until observed
	}
	for i, n := range nodes {
		read, write := costmodel.ScoreParts(p.Device, p.Graph, raw, disk, dag.NodeID(i))
		if n.Latest.WriteTime > 0 {
			write = n.Latest.WriteTime
		}
		if n.Latest.EncodedBytes > 0 && pr.SerializedSizes != nil {
			pr.SerializedSizes[i] = n.Latest.EncodedBytes
		}
		pr.Scores[i] = costmodel.Score(read, write)
		pr.Pricing[i] = introspect.NodePricing{RawBytes: raw[i], ReadSaveSeconds: read.Seconds(), WriteSaveSeconds: write.Seconds()}
		if p.Encoding != nil {
			pr.Pricing[i].PredictedBytes = n.Predicted
		}
	}
	return pr
}

// Plan is the one solve of a refresh path: the pipeline's current Problem
// under memory, run through the paper's Algorithm 2. observer, when
// non-nil, receives an IterationDone event per alternating iteration.
func (p *Pipeline) Plan(ctx context.Context, memory int64, observer obs.Observer) (*Priced, *core.Plan, *opt.Stats, error) {
	pr := p.Problem(memory)
	plan, st, err := opt.Solve(ctx, pr.Problem, opt.Options{Observer: observer})
	return pr, plan, st, err
}

// Explain reconstructs, for every MV, why plan flags or skips it under
// pr's budget: the score and its two parts as priced, raw vs predicted
// encoded bytes, the marginal byte cost that decided the flag and what
// would flip it.
func (p *Pipeline) Explain(pr *Priced, plan *core.Plan) *introspect.ExplainReport {
	return introspect.Explain(introspect.ExplainInput{
		Pipeline: p.Name,
		Problem:  pr.Problem,
		Plan:     plan,
		Pricing:  pr.Pricing,
		Encoding: p.Encoding != nil,
	})
}

// RunEnv is what differs between callers of Run.
type RunEnv struct {
	Mem   *memcat.Catalog  // the run's bounded Memory Catalog
	Sched *sched.Scheduler // shared token pool; nil gives the run a private one
	RunID string
	// Trace, from OpenTrace, is the run's record: its trace and its event
	// log. Nil for an untraced run.
	Trace *telemetry.Collector
	// Observer watches the event stream beside the trace: the library's
	// WithObserver. Nil for everyone else.
	Observer obs.Observer
}

// controller builds the run's Controller for plan. Its event stream has
// exactly the watchers env names: none of them means a nil Obs, and no call
// per event. With more than one token it dispatches by longest remaining
// path over each node's latest observed seconds; a never-observed node
// counts as 0 s, so a first run keeps plan order.
func (p *Pipeline) controller(env RunEnv, plan *core.Plan) *exec.Controller {
	watchers := env.Observer
	if env.Trace != nil {
		watchers = obs.Multi(env.Observer, env.Trace)
	}
	seconds := make([]float64, p.Graph.Len())
	for i, n := range p.Metrics.Nodes(p.Graph, SizeGuess) {
		seconds[i] = n.Latest.Seconds()
	}
	return &exec.Controller{
		Store:       p.Store,
		Mem:         env.Mem,
		Obs:         watchers,
		RunID:       env.RunID,
		Concurrency: p.Concurrency,
		Rank:        core.DispatchRank(p.Graph, plan.Order, seconds),
		Sched:       env.Sched,
		Encoding:    p.Encoding,
	}
}

// Run executes one refresh following plan and records each completed
// node's execution metadata for future planning. On cancellation or error
// the partial result of the completed nodes is returned — and recorded —
// with the error.
func (p *Pipeline) Run(ctx context.Context, plan *core.Plan, env RunEnv) (*exec.RunResult, error) {
	res, err := p.controller(env, plan).Run(ctx, p.Workload, p.Graph, plan)
	if res != nil {
		now := time.Now()
		for _, n := range res.Nodes {
			p.Metrics.Record(metrics.Observation{
				Name:         n.Name,
				RunID:        env.RunID,
				OutputBytes:  n.OutputBytes,
				EncodedBytes: n.EncodedSize,
				ReadTime:     n.ReadTime,
				WriteTime:    n.WriteTime,
				ComputeTime:  n.ComputeTime,
				When:         now,
			})
		}
	}
	return res, err
}

// OpenTrace opens a run's trace: the root span starts at start (zero means
// now) under parent when valid (a client's W3C traceparent).
func (p *Pipeline) OpenTrace(runID string, start time.Time, parent telemetry.SpanContext) *telemetry.Collector {
	return telemetry.NewCollector(telemetry.CollectorConfig{
		RunID:   runID,
		Parent:  parent,
		Start:   start,
		Profile: true,
	})
}

// Finisher ends runs: every field is optional, and a nil field skips its
// step.
type Finisher struct {
	Ledger   *ledger.Ledger     // run history, baselines and anomaly verdicts
	Alerts   *alert.Notifier    // webhook for anomalies and verdict transitions
	Exporter telemetry.Exporter // receives finished traces
	// TailSample exports only traces the ledger judges worth keeping:
	// anomalous, slow against the learned baseline, or not succeeded.
	TailSample bool
	// SLOSeconds is the latency objective health verdicts are judged
	// against; 0 takes the ledger's default.
	SLOSeconds float64
}

// Trace-export outcomes Finish reports.
const (
	SampleKept    = "kept"
	SampleDropped = "dropped"
)

// Finish closes a traced run, executed or not: it ends col's root span at
// now (zero means the present) with the outcome as its status, lands the
// ledger row derived from the spans, pushes the row's anomalies and a
// changed health verdict to the webhook, and exports the trace unless tail
// sampling drops it. The caller supplies meta's outcome; Finish fills in
// the pipeline name. sampled is SampleKept or SampleDropped, or "" without
// an exporter. A run that opened no trace has nothing to finish.
func (f *Finisher) Finish(p *Pipeline, col *telemetry.Collector, now time.Time, meta ledger.Meta) (sum ledger.RunSummary, sampled string, spans []telemetry.Span) {
	meta.Pipeline = p.Name
	msg := meta.Err
	if msg == "" && meta.Outcome != ledger.OutcomeSucceeded {
		msg = meta.Outcome
	}
	col.Finish(now, msg)
	spans = col.Spans()
	keep := true
	if f.Ledger != nil {
		var dec ledger.Decision
		sum, dec = f.Ledger.Append(ledger.Summarize(spans, p.Parents, meta))
		f.notify(p, sum)
		keep = dec.Keep || !f.TailSample
	}
	if f.Exporter != nil {
		sampled = SampleDropped
		if keep {
			f.Exporter.Export(spans)
			sampled = SampleKept
		}
	}
	return sum, sampled, spans
}

// notify pushes one event per ledger anomaly, plus the pipeline's
// health-verdict transition when this run changed it. The first verdict a
// pipeline observes establishes the baseline silently, so a fresh pipeline
// does not alert "unknown became healthy" on its first run.
func (f *Finisher) notify(p *Pipeline, sum ledger.RunSummary) {
	if f.Alerts == nil {
		return
	}
	for _, a := range sum.Anomalies {
		msg := fmt.Sprintf("pipeline %s: %s", p.Name, a.Kind)
		if a.Node != "" {
			msg += " at node " + a.Node
		}
		if a.Detail != "" {
			msg += ": " + a.Detail
		}
		f.Alerts.Notify(alert.Event{
			Pipeline: p.Name,
			Kind:     a.Kind,
			Severity: "warning",
			Summary:  msg,
			RunID:    sum.RunID,
			Node:     a.Node,
			Observed: a.Observed,
			Baseline: a.Baseline,
			Sigma:    a.Score,
		})
	}
	verdict := f.Ledger.Health(p.Name, f.SLOSeconds).Verdict
	p.mu.Lock()
	prev := p.lastVerdict
	p.lastVerdict = verdict
	p.mu.Unlock()
	if prev == "" || prev == verdict {
		return
	}
	sev := "info"
	switch verdict {
	case ledger.VerdictFailing:
		sev = "critical"
	case ledger.VerdictDegraded:
		sev = "warning"
	}
	f.Alerts.Notify(alert.Event{
		Pipeline:    p.Name,
		Kind:        "health_transition",
		Severity:    sev,
		Summary:     fmt.Sprintf("pipeline %s went %s (was %s)", p.Name, verdict, prev),
		RunID:       sum.RunID,
		FromVerdict: prev,
		ToVerdict:   verdict,
	})
}
