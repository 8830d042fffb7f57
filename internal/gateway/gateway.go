// Package gateway is the multi-tenant refresh gateway: a server hosting
// many named MV pipelines over ONE shared Memory Catalog budget. Each
// registered pipeline keeps its own metrics store and storage namespace
// (named by the pipeline), and runs the row path or, registered with
// encoding, the compressed path; every refresh trigger is re-planned from
// the pipeline's observed execution metadata, the plan's proven peak
// catalog footprint is reserved against the tenant's slice and the global
// pool by the admission controller, and only then does the refresh run.
// Triggers that do not fit queue in a bounded FIFO with a deadline;
// cancellation — explicit or by client disconnect — releases reservations
// and evicts partial state, so the shared budget can never leak. Every run
// is traced from enqueue to its terminal state: the trace is what the
// ledger row and the per-run /metrics counters are derived from, once,
// when the run finishes. Every read surface — /healthz, the /metrics
// gauges and /v1/state/{sched,catalog} — is a projection of one snapshot
// that reads each owner of the state (registry, admitter, pool, scheduler,
// ledger, run catalogs) once, so what they report about one state agrees.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/introspect"
	"github.com/shortcircuit-db/sc/internal/introspect/alert"
	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/sched"
	"github.com/shortcircuit-db/sc/internal/session"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/telemetry"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

// Errors the HTTP layer maps to status codes.
var (
	ErrNotFound      = errors.New("gateway: not found")
	ErrAlreadyExists = errors.New("gateway: pipeline already exists")
	// ErrUnreadable reports a stored object that exists but cannot be read
	// or decoded (HTTP 500): a fault of the store, not of the request.
	ErrUnreadable = errors.New("gateway: stored object unreadable")
)

// Config configures a Server. The zero value of every field but
// GlobalBudget has a sensible default.
type Config struct {
	// GlobalBudget is the shared Memory Catalog capacity in bytes across
	// all tenants; required.
	GlobalBudget int64
	// DefaultSlice bounds a tenant's share of the budget when its
	// registration does not say; 0 means the whole budget.
	DefaultSlice int64
	// QueueLimit bounds the refresh trigger queue; beyond it triggers are
	// rejected with ErrQueueFull (HTTP 429). Default 64.
	QueueLimit int
	// QueueTimeout is how long a queued trigger may wait for admission
	// before it expires. Default 30s.
	QueueTimeout time.Duration
	// Headroom sizes a run's reservation from its plan's peak Memory
	// Catalog usage: peak × Headroom, never below the peak and never above
	// the tenant's slice. The reservation is also the capacity of the run's
	// catalog. Default 1.25, min 1.
	Headroom float64
	// Concurrency is each run's scheduler-token budget — up to this many
	// DAG nodes of one refresh execute at a time. Default 2.
	Concurrency int
	// SchedTokens is the server-wide scheduler token budget (one token ≈
	// one core) that every run's node pool draws from. Admission commits
	// each run's Concurrency against its size (a count the admitter keeps;
	// no runtime token is taken), so the planned width across all tenants
	// never exceeds the machine's budget. Default 4×Concurrency.
	SchedTokens int
	// NewStore creates a pipeline's storage backend; default is an
	// in-memory store per pipeline.
	NewStore func(pipeline string) storage.Store
	// Clock injects time for tests; default time.Now.
	Clock func() time.Time
	// TraceExporter receives each finished run's spans (OTLP or file
	// exporter from internal/telemetry). Nil exports nothing. Every refresh
	// assembles a trace either way — a root span covering enqueue to
	// finish, a queue-admission child span, and one span per executed node
	// — because the ledger row and baselines are derived from it; it is
	// served at GET /v1/runs/{id}/trace with critical-path analysis.
	TraceExporter telemetry.Exporter
	// TailSample keeps exported traces only for runs worth keeping —
	// anomalous, slow against the pipeline's learned baseline, or not
	// succeeded — and drops the rest. Off by default (every trace exports).
	TailSample bool
	// LedgerPath persists per-run summaries as NDJSON and replays them on
	// startup, so baselines survive restarts. "" keeps the run ledger in
	// memory only.
	LedgerPath string
	// LedgerCapacity bounds the in-memory run-history ring and, with it,
	// how many finished runs stay readable at /v1/runs/{id} (status, trace,
	// events); older ones answer 404. Default 512.
	LedgerCapacity int
	// SLOSeconds is the refresh-latency objective /v1/pipelines/{p}/health
	// reports attainment against. Default 60.
	SLOSeconds float64
	// AlertWebhook, when set, pushes ledger anomalies and health-verdict
	// transitions to this URL as JSON POSTs instead of waiting to be
	// scraped: bounded queue, exponential-backoff retry, per-(pipeline,
	// kind) dedup. "" disables alerting.
	AlertWebhook string
	// AlertCooldown is the dedup window per (pipeline, kind). Default 5m.
	AlertCooldown time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.GlobalBudget <= 0 {
		return c, errors.New("gateway: GlobalBudget must be positive")
	}
	if c.DefaultSlice <= 0 || c.DefaultSlice > c.GlobalBudget {
		c.DefaultSlice = c.GlobalBudget
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 30 * time.Second
	}
	if c.Headroom < 1 {
		c.Headroom = 1.25
	}
	if c.Concurrency < 1 {
		c.Concurrency = 2
	}
	if c.SchedTokens < 1 {
		c.SchedTokens = 4 * c.Concurrency
	}
	if c.SchedTokens < c.Concurrency {
		c.SchedTokens = c.Concurrency
	}
	if c.NewStore == nil {
		c.NewStore = func(string) storage.Store { return storage.NewMemStore() }
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.LedgerCapacity <= 0 {
		c.LedgerCapacity = 512
	}
	if c.SLOSeconds <= 0 {
		c.SLOSeconds = 60
	}
	return c, nil
}

// MVSpec declares one MV of a pipeline registration.
type MVSpec struct {
	Name string `json:"name"`
	SQL  string `json:"sql"`
}

// PipelineSpec registers a pipeline.
type PipelineSpec struct {
	Name        string
	Tenant      string        // defaults to "default"
	TenantSlice int64         // tenant budget slice; first registration wins
	MVs         []MVSpec      // the refresh DAG, dependencies implied by table names
	Every       time.Duration // cron interval; 0 = manual triggers only
	Encoding    bool          // the compressed path: chunked storage, kernels

	// SeedTPCDS seeds the pipeline's store with the TPC-DS-like dataset at
	// this scale factor (0 = none).
	SeedTPCDS float64
	// Tables seeds explicit base tables.
	Tables map[string]*table.Table
}

// TPCDSSpec builds a registration for the repo's TPC-DS-like real
// workload (the 12-node store_sales pipeline), seeded at the given scale
// factor with the compressed path enabled — what the CI smoke job and the
// gateway bench register.
func TPCDSSpec(name, tenant string, sf float64) PipelineSpec {
	w := tpcds.RealWorkload()
	spec := PipelineSpec{
		Name: name, Tenant: tenant,
		SeedTPCDS: sf,
		Encoding:  true,
	}
	for _, n := range w.Nodes {
		spec.MVs = append(spec.MVs, MVSpec{Name: n.Name, SQL: n.SQL})
	}
	return spec
}

// pipeline is one registered refresh DAG: the shared session state plus
// what only a served pipeline has — a tenant and a cron interval.
type pipeline struct {
	*session.Pipeline
	tenant  string
	every   time.Duration
	created time.Time

	mu        sync.Mutex
	nextFire  time.Time
	lastRunID string
	runsTotal int64

	// finMu orders a finishing run's ledger row against Unregister: once
	// gone is set no run of this pipeline lands a row, so what Unregister
	// forgot stays forgotten.
	finMu sync.Mutex
	gone  bool
}

// Run states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateSucceeded = "succeeded"
	StateFailed    = "failed"
	StateCanceled  = "canceled"
	StateExpired   = "expired"
)

// Run is one refresh trigger through its lifecycle: queued by admission,
// running, then terminal. Wait on Done and read Status.
type Run struct {
	id string
	p  *pipeline // outlives Unregister while the run is in flight

	done  chan struct{}        // closed on any terminal state
	tkt   *ticket              // what admission reserves and commits for the run
	trace *telemetry.Collector // the run's record: opened at enqueue, finished at the terminal state

	mu         sync.Mutex
	state      string
	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time
	cancelRun  context.CancelFunc // set while running
	cat        *memcat.Catalog    // live catalog while running
	errMsg     string
	nodes      int
	flagged    int
	fallbacks  int
	leaked     int64 // bytes the run left in the shared pool, credited back by Detach
	actualPeak int64 // run catalog high-water mark, vs the reservation
	// evicted holds the run's Evicted events, read once when its trace
	// closed (logClosed); until then they are read off the open log.
	evicted   []introspect.EvictionEvent
	logClosed bool
}

// RunStatus is a run's externally visible snapshot.
type RunStatus struct {
	ID               string    `json:"id"`
	Pipeline         string    `json:"pipeline"`
	Tenant           string    `json:"tenant"`
	State            string    `json:"state"`
	ReservedBytes    int64     `json:"reserved_bytes"`
	ReservedTokens   int       `json:"reserved_tokens,omitempty"`
	ActualPeakBytes  int64     `json:"actual_peak_bytes,omitempty"`
	EnqueuedAt       time.Time `json:"enqueued_at"`
	StartedAt        time.Time `json:"started_at,omitzero"`
	FinishedAt       time.Time `json:"finished_at,omitzero"`
	QueueWaitSeconds float64   `json:"queue_wait_seconds,omitempty"`
	ElapsedSeconds   float64   `json:"elapsed_seconds,omitempty"`
	Nodes            int       `json:"nodes,omitempty"`
	Flagged          int       `json:"flagged,omitempty"`
	FallbackWrites   int       `json:"fallback_writes,omitempty"`
	LeakedBytes      int64     `json:"leaked_bytes,omitempty"` // left in the shared pool at the end; 0 unless a bug leaks
	Error            string    `json:"error,omitempty"`
	EventsDropped    int64     `json:"events_dropped,omitempty"`
}

// ID returns the run's identifier.
func (r *Run) ID() string { return r.id }

// Done is closed when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Traceparent returns the run's root span as a W3C traceparent value.
func (r *Run) Traceparent() string { return r.trace.Context().Traceparent() }

// Status snapshots the run.
func (r *Run) Status() RunStatus { return r.status() }

func (r *Run) status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RunStatus{
		ID: r.id, Pipeline: r.p.Name, Tenant: r.p.tenant, State: r.state,
		ReservedBytes: r.tkt.need, ReservedTokens: r.tkt.tokens,
		ActualPeakBytes: r.actualPeak, EnqueuedAt: r.enqueuedAt,
		StartedAt: r.startedAt, FinishedAt: r.finishedAt,
		Nodes: r.nodes, Flagged: r.flagged, FallbackWrites: r.fallbacks,
		LeakedBytes: r.leaked, Error: r.errMsg, EventsDropped: r.trace.EventsDropped(),
	}
	if !r.startedAt.IsZero() {
		st.QueueWaitSeconds = r.startedAt.Sub(r.enqueuedAt).Seconds()
	}
	if !r.finishedAt.IsZero() {
		st.ElapsedSeconds = r.finishedAt.Sub(r.enqueuedAt).Seconds()
	}
	return st
}

// Stats is the server-wide snapshot backing /healthz and the bench report.
type Stats struct {
	Pipelines     int   `json:"pipelines"`
	QueueDepth    int   `json:"queue_depth"`
	Admitted      int64 `json:"admitted"`
	Enqueued      int64 `json:"enqueued"`
	Rejected      int64 `json:"rejected"`
	Expired       int64 `json:"expired"`
	BudgetBytes   int64 `json:"budget_bytes"`
	ReservedBytes int64 `json:"reserved_bytes"`
	UsedBytes     int64 `json:"used_bytes"`
	PeakUsedBytes int64 `json:"peak_used_bytes"`
	PeakReserved  int64 `json:"peak_reserved_bytes"`
	// Scheduler token budget: total pool size, tokens idle right now and
	// tokens soft-committed by admitted runs. A token is one running node.
	SchedTokens    int `json:"sched_tokens"`
	SchedIdle      int `json:"sched_tokens_idle"`
	SchedCommitted int `json:"sched_tokens_committed"`
}

// Server hosts the pipelines and schedules their refreshes against the
// shared budget.
type Server struct {
	cfg   Config
	pool  *memcat.Pool
	sched *sched.Scheduler
	adm   *admitter
	prom  *prom
	fin   session.Finisher // ledger always; alerts and exporter per Config

	mu          sync.Mutex
	pipelines   map[string]*pipeline
	registering map[string]bool // names whose Register is still seeding
	runs        map[string]*Run
	terminal    []string // ids of the retained finished runs, oldest first
	runSeq      int64
	// evictionsRetired counts the Evicted events of the runs no longer
	// retained, so the eviction count outlives them.
	evictionsRetired int64

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
	runWG    sync.WaitGroup
}

// NewServer validates the config and starts the scheduler loop (cron fires
// and queue-deadline reaping). Close releases it.
func NewServer(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	led, err := ledger.New(ledger.Config{
		Capacity:    cfg.LedgerCapacity,
		Path:        cfg.LedgerPath,
		SlowSeconds: cfg.SLOSeconds,
	})
	if err != nil {
		return nil, err
	}
	// One scheduler-wide token pool for every run's nodes.
	tok := sched.New(cfg.SchedTokens, 0)
	s := &Server{
		cfg:   cfg,
		pool:  memcat.NewPool(cfg.GlobalBudget),
		sched: tok,
		adm:   newAdmitter(cfg.GlobalBudget, tok.Tokens(), cfg.QueueLimit, cfg.Clock),
		prom:  newProm(),
		fin: session.Finisher{
			Ledger:     led,
			Exporter:   cfg.TraceExporter,
			TailSample: cfg.TailSample,
			SLOSeconds: cfg.SLOSeconds,
		},
		pipelines:   make(map[string]*pipeline),
		registering: make(map[string]bool),
		runs:        make(map[string]*Run),
		stopCh:      make(chan struct{}),
	}
	if cfg.AlertWebhook != "" {
		s.fin.Alerts = alert.New(alert.Config{
			URL:      cfg.AlertWebhook,
			Cooldown: cfg.AlertCooldown,
			Now:      cfg.Clock,
		})
	}
	s.prom.registerGauges()
	s.wg.Add(1)
	go s.schedulerLoop()
	return s, nil
}

// Close stops the scheduler, cancels running refreshes and waits for them.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.wg.Wait()
	s.mu.Lock()
	runs := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	for _, r := range runs {
		r.mu.Lock()
		if r.state == StateRunning && r.cancelRun != nil {
			r.cancelRun()
		}
		r.mu.Unlock()
		s.cancelIfQueued(r)
	}
	s.runWG.Wait()
	if s.fin.Alerts != nil {
		s.fin.Alerts.Close() // after runWG: every finish path has notified
	}
	_ = s.fin.Ledger.Close()
}

// schedulerLoop reaps queue deadlines and fires cron triggers.
func (s *Server) schedulerLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-tick.C:
			s.adm.reap()
			s.fireCron()
		}
	}
}

// fireCron triggers every pipeline whose interval elapsed.
func (s *Server) fireCron() {
	now := s.cfg.Clock()
	var due []string
	s.mu.Lock()
	for name, p := range s.pipelines {
		p.mu.Lock()
		if p.every > 0 && !p.nextFire.After(now) {
			p.nextFire = now.Add(p.every)
			due = append(due, name)
		}
		p.mu.Unlock()
	}
	s.mu.Unlock()
	for _, name := range due {
		// Cron fires best-effort: a full queue drops the tick, the next one
		// tries again.
		_, _ = s.Trigger(name)
	}
}

// Register adds a pipeline. Its name keys its storage namespace, so it
// must be one path element; its base tables are written to that store
// before the first trigger can run.
func (s *Server) Register(spec PipelineSpec) error {
	if spec.Name == "" || spec.Name == "." || spec.Name == ".." || strings.ContainsAny(spec.Name, `/\`) {
		return fmt.Errorf("gateway: pipeline name %q is not a single path element", spec.Name)
	}
	if len(spec.MVs) == 0 {
		return errors.New("gateway: pipeline needs at least one MV")
	}
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	// Claim the name before anything opens its store, so neither a
	// duplicate nor a concurrent registration touches the pipeline's tables.
	s.mu.Lock()
	_, dup := s.pipelines[spec.Name]
	if dup || s.registering[spec.Name] {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrAlreadyExists, spec.Name)
	}
	s.registering[spec.Name] = true
	s.mu.Unlock()

	p, err := s.newPipeline(spec)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.registering, spec.Name)
	if err != nil {
		return err
	}
	s.pipelines[spec.Name] = p
	slice := spec.TenantSlice
	if slice <= 0 {
		slice = s.cfg.DefaultSlice
	}
	s.adm.addTenant(spec.Tenant, slice)
	return nil
}

// newPipeline builds spec's pipeline over its own store and seeds it.
func (s *Server) newPipeline(spec PipelineSpec) (*pipeline, error) {
	nodes := make([]exec.NodeSpec, len(spec.MVs))
	for i, mv := range spec.MVs {
		nodes[i] = exec.NodeSpec{Name: mv.Name, SQL: mv.SQL}
	}
	sp, err := session.NewPipeline(spec.Name, nodes, s.cfg.NewStore(spec.Name))
	if err != nil {
		return nil, err
	}
	sp.Device = costmodel.PaperProfile()
	sp.Concurrency = s.cfg.Concurrency
	if spec.Encoding {
		sp.Encoding = &encoding.Options{}
	}
	p := &pipeline{Pipeline: sp, tenant: spec.Tenant, every: spec.Every, created: s.cfg.Clock()}
	if p.every > 0 {
		p.nextFire = p.created.Add(p.every)
	}
	return p, s.seed(p, spec)
}

// seed writes the spec's base tables into the pipeline's store, chunked
// when the pipeline runs with encoding so the kernels can engage.
func (s *Server) seed(p *pipeline, spec PipelineSpec) error {
	save := func(st storage.Store, name string, t *table.Table) error {
		if p.Encoding != nil {
			return exec.SaveTableChunked(st, name, t, *p.Encoding)
		}
		return exec.SaveTable(st, name, t)
	}
	if spec.SeedTPCDS > 0 {
		ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: spec.SeedTPCDS, Seed: 1})
		if err != nil {
			return err
		}
		if err := ds.Save(p.Store, save); err != nil {
			return err
		}
	}
	for name, t := range spec.Tables {
		if err := save(p.Store, name, t); err != nil {
			return err
		}
	}
	return nil
}

// Unregister removes a pipeline and everything it remembers. In-flight
// runs keep the pipeline object and finish normally, except that they land
// nothing in the ledger: a pipeline registered under the name later starts
// from no history.
func (s *Server) Unregister(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pipelines[name]
	if !ok {
		return fmt.Errorf("%w: pipeline %q", ErrNotFound, name)
	}
	delete(s.pipelines, name)
	p.finMu.Lock() // waits out a run that is landing its row right now
	p.gone = true
	p.finMu.Unlock()
	s.fin.Ledger.Forget(name)
	return nil
}

// PipelineInfo is a pipeline's externally visible snapshot. Encoding is
// whether its refreshes take the compressed path rather than the row path.
type PipelineInfo struct {
	Name         string   `json:"name"`
	Tenant       string   `json:"tenant"`
	MVs          []string `json:"mvs"`
	EverySeconds float64  `json:"every_seconds,omitempty"`
	Encoding     bool     `json:"encoding"`
	Runs         int64    `json:"runs"`
	LastRunID    string   `json:"last_run_id,omitempty"`
	SliceBytes   int64    `json:"tenant_slice_bytes"`
}

func (s *Server) info(p *pipeline) PipelineInfo {
	mvs := make([]string, 0, len(p.Workload.Nodes))
	for _, n := range p.Workload.Nodes {
		mvs = append(mvs, n.Name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return PipelineInfo{
		Name: p.Name, Tenant: p.tenant, MVs: mvs,
		EverySeconds: p.every.Seconds(),
		Encoding:     p.Encoding != nil,
		Runs:         p.runsTotal, LastRunID: p.lastRunID,
		SliceBytes: s.adm.tenantSlice(p.tenant),
	}
}

// pipeline looks up a registered pipeline.
func (s *Server) pipeline(name string) (*pipeline, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.pipelines[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("%w: pipeline %q", ErrNotFound, name)
}

// Pipeline returns one pipeline's snapshot.
func (s *Server) Pipeline(name string) (PipelineInfo, error) {
	p, err := s.pipeline(name)
	if err != nil {
		return PipelineInfo{}, err
	}
	return s.info(p), nil
}

// Pipelines lists all pipeline snapshots.
func (s *Server) Pipelines() []PipelineInfo {
	s.mu.Lock()
	ps := make([]*pipeline, 0, len(s.pipelines))
	for _, p := range s.pipelines {
		ps = append(ps, p)
	}
	s.mu.Unlock()
	infos := make([]PipelineInfo, 0, len(ps))
	for _, p := range ps {
		infos = append(infos, s.info(p))
	}
	return infos
}

// planTrigger re-plans the pipeline from its current execution metadata
// and sizes the refresh's reservation: encoded sizes via the learned
// compression ratios (EWMA), scores under the device profile, the knapsack
// solved against the tenant slice, and the plan's proven peak usage
// inflated by the headroom factor — never below that peak, never above the
// slice. Every trigger replans, so the gateway IS the paper's observe →
// re-optimize loop.
func (s *Server) planTrigger(ctx context.Context, p *pipeline) (*core.Plan, int64, error) {
	slice := s.adm.tenantSlice(p.tenant)
	_, plan, st, err := p.Plan(ctx, slice, nil)
	if err != nil {
		return nil, 0, err
	}
	peak := st.PeakMemory
	return plan, max(peak, min(int64(float64(peak)*s.cfg.Headroom), slice)), nil
}

// Trigger requests a refresh of the named pipeline. It returns the run in
// state queued or running; ErrQueueFull when the queue is at capacity.
func (s *Server) Trigger(name string) (*Run, error) {
	return s.TriggerTrace(name, telemetry.SpanContext{})
}

// TriggerTrace is Trigger with trace-context propagation: when parent is
// valid (a client's W3C traceparent), the run's root span joins that trace
// instead of starting a new one.
func (s *Server) TriggerTrace(name string, parent telemetry.SpanContext) (*Run, error) {
	p, err := s.pipeline(name)
	if err != nil {
		return nil, err
	}
	plan, need, err := s.planTrigger(context.Background(), p)
	if err != nil {
		return nil, err
	}
	now := s.cfg.Clock()
	s.mu.Lock()
	s.runSeq++
	r := &Run{
		id:    fmt.Sprintf("run-%06d", s.runSeq),
		p:     p,
		done:  make(chan struct{}),
		state: StateQueued,
	}
	r.enqueuedAt = now
	r.tkt = &ticket{
		tenant:   p.tenant,
		pipeline: p.Name,
		need:     need,
		tokens:   s.cfg.Concurrency,
		deadline: now.Add(s.cfg.QueueTimeout),
		start:    func(*ticket) { s.startRun(r, plan) },
		expire:   func(*ticket) { s.expireRun(r) },
	}
	// The root span opens at enqueue, so queue wait is on the trace.
	r.trace = p.OpenTrace(r.id, now, parent)
	r.trace.SetRootAttrs(
		telemetry.Str("sc.pipeline", p.Name),
		telemetry.Str("sc.tenant", p.tenant),
		telemetry.Int("sc.reserved_bytes", need),
		telemetry.Int("sc.reserved_tokens", int64(r.tkt.tokens)),
	)
	s.runs[r.id] = r
	s.mu.Unlock()

	admittedNow, err := s.adm.submit(r.tkt)
	if err != nil {
		s.mu.Lock()
		delete(s.runs, r.id)
		s.mu.Unlock()
		s.prom.triggers.add(1, "rejected")
		return nil, err
	}
	if admittedNow {
		s.prom.triggers.add(1, "admitted")
	} else {
		s.prom.triggers.add(1, "queued")
	}
	return r, nil
}

// startRun is the admitter's start callback: the reservation is held; move
// the run to running and execute it on its own goroutine.
func (s *Server) startRun(r *Run, plan *core.Plan) {
	now := s.cfg.Clock()
	r.mu.Lock()
	if r.state != StateQueued {
		// Canceled between pump and callback; give the reservation back.
		r.mu.Unlock()
		s.adm.finish(r.tkt)
		return
	}
	r.state = StateRunning
	r.startedAt = now
	ctx, cancel := context.WithCancel(context.Background())
	r.cancelRun = cancel
	r.mu.Unlock()
	attrs := []telemetry.Attr{
		telemetry.Str("sc.tenant", r.p.tenant),
		telemetry.Int("sc.reserved_bytes", r.tkt.need),
		telemetry.Int("sc.reserved_tokens", int64(r.tkt.tokens)),
	}
	// Attribute the queue wait: what the pump last saw holding this
	// trigger at the head — catalog bytes, scheduler tokens, the
	// tenant's slice, or its own pipeline still running.
	if b := r.tkt.blocked; b != "" {
		attrs = append(attrs, telemetry.Str("sc.blocked_on", b))
	}
	r.trace.AddChildSpan(telemetry.SpanQueueAdmission, r.enqueuedAt, now, attrs...)
	s.prom.queueWait.observe(now.Sub(r.enqueuedAt).Seconds())
	s.runWG.Add(1)
	go func() {
		defer s.runWG.Done()
		s.execute(ctx, r, plan)
	}()
}

// execute runs one admitted refresh: a per-run catalog attached to the
// shared pool, capacity exactly the reservation, so the pool-wide bound
// holds byte-for-byte no matter what the run does.
func (s *Server) execute(ctx context.Context, r *Run, plan *core.Plan) {
	cat := s.pool.NewCatalog(r.tkt.need)
	r.mu.Lock()
	r.cat = cat
	r.mu.Unlock()

	res, runErr := r.p.Run(ctx, plan, session.RunEnv{
		Mem:   cat,
		Sched: s.sched,
		RunID: r.id,
		Trace: r.trace,
	})

	// The run leaves the live set before Detach credits what it left back to
	// the pool, so no report sums entries the pool no longer holds.
	r.mu.Lock()
	r.cat = nil
	r.mu.Unlock()
	actualPeak := cat.Peak() // before Detach zeroes the accounting
	leaked := cat.Detach()
	s.adm.finish(r.tkt)

	now := s.cfg.Clock()
	state := StateSucceeded
	switch {
	case runErr != nil && errors.Is(runErr, context.Canceled):
		state = StateCanceled
	case runErr != nil:
		state = StateFailed
	}
	r.p.mu.Lock()
	r.p.lastRunID = r.id
	r.p.runsTotal++
	r.p.mu.Unlock()
	exemplar := fmt.Sprintf("trace_id=%q", r.trace.Context().TraceID.String())
	s.prom.refreshSeconds.observeExemplar(now.Sub(r.enqueuedAt).Seconds(), exemplar, r.p.tenant, r.p.Name)

	r.mu.Lock()
	r.cancelRun = nil
	r.leaked = leaked
	r.actualPeak = actualPeak
	if runErr != nil {
		r.errMsg = runErr.Error()
	}
	if res != nil {
		r.nodes = len(res.Nodes)
		r.fallbacks = res.FallbackWrites
		for _, n := range res.Nodes {
			if n.Flagged {
				r.flagged++
			}
		}
	}
	s.terminate(r, state, now)
}

// terminate is the one way a run ends. The caller holds r.mu, has checked
// the state the run leaves and filled in what it produced; terminate
// records the terminal state, releases r.mu, ends the run's observability
// lifecycle, counts the refresh and retires the run.
func (s *Server) terminate(r *Run, state string, now time.Time) {
	r.state = state
	r.finishedAt = now
	r.mu.Unlock()
	s.finishTrace(r, now, state)
	s.prom.refreshes.add(1, r.p.tenant, r.p.Name, state)
	s.retire(r)
}

// retire keeps a run that reached a terminal state readable until
// LedgerCapacity later runs have finished; the oldest finished run beyond
// that is dropped, with its trace and hold on the pipeline, and only the
// count of its evictions stays. Queued and executing runs are not in the
// list, so they are never dropped.
func (s *Server) retire(r *Run) {
	s.mu.Lock()
	s.terminal = append(s.terminal, r.id)
	for len(s.terminal) > s.cfg.LedgerCapacity {
		// finishTrace set evicted before the run joined s.terminal.
		s.evictionsRetired += int64(len(s.runs[s.terminal[0]].evicted))
		delete(s.runs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
	s.mu.Unlock()
	close(r.done)
}

// finishTrace ends the run's observability lifecycle at its terminal
// state — executed or not — through the server's Finisher, and adds what
// the run's summary says it did to the prom counters.
func (s *Server) finishTrace(r *Run, now time.Time, state string) {
	st := r.status()
	r.trace.SetRootAttrs(
		telemetry.Str("sc.state", state),
		telemetry.Int("sc.actual_peak_bytes", st.ActualPeakBytes),
		telemetry.Int("sc.leaked_bytes", st.LeakedBytes),
	)
	meta := ledger.Meta{
		RunID: r.id, Tenant: r.p.tenant, Outcome: state,
		Start:       st.EnqueuedAt,
		WallSeconds: st.ElapsedSeconds, QueueWaitSeconds: st.QueueWaitSeconds,
		ReservedBytes: st.ReservedBytes, ActualPeakBytes: st.ActualPeakBytes,
		FallbackWrites: st.FallbackWrites,
		EventsDropped:  st.EventsDropped, Err: st.Error,
	}
	fin := s.fin
	r.p.finMu.Lock()
	if r.p.gone {
		fin.Ledger = nil
	}
	sum, sampled, spans := fin.Finish(r.p.Pipeline, r.trace, now, meta)
	r.p.finMu.Unlock()
	evicted := r.evictions() // the log is closed: no event follows
	r.mu.Lock()
	r.evicted, r.logClosed = evicted, true
	r.mu.Unlock()
	if fin.Ledger == nil {
		sum = ledger.Summarize(spans, r.p.Parents, meta) // counted below, landed nowhere
	}
	tenant, name := r.p.tenant, r.p.Name
	s.prom.decodeBytes.add(float64(sum.DecodedBytes), tenant, name)
	s.prom.encodeBytes.add(float64(sum.EncodedBytes), tenant, name)
	s.prom.materialized.add(float64(sum.MaterializedBytes), tenant, name)
	s.prom.evictions.add(float64(sum.Evictions), tenant, name)
	s.prom.kernelFallbacks.add(float64(sum.KernelFallbacks), tenant, name)
	s.prom.eventsDropped.add(float64(st.EventsDropped), tenant, name)
	for _, a := range sum.Anomalies {
		s.prom.anomalies.add(1, name, a.Kind)
	}
	if sampled != "" {
		s.prom.traceSampled.add(1, sampled)
	}
}

// RunHistory returns retained run summaries, newest first.
func (s *Server) RunHistory(f ledger.Filter) []ledger.RunSummary {
	return s.fin.Ledger.Runs(f)
}

// PipelineHealth reports SLO attainment, baseline-vs-latest per node and
// regressions for one registered pipeline over the ledger window.
func (s *Server) PipelineHealth(name string) (ledger.Health, error) {
	if _, err := s.pipeline(name); err != nil {
		return ledger.Health{}, err
	}
	return s.fin.Ledger.Health(name, s.cfg.SLOSeconds), nil
}

// expireRun is the admitter's expire callback: the queue deadline passed.
func (s *Server) expireRun(r *Run) {
	r.mu.Lock()
	if r.state != StateQueued {
		r.mu.Unlock()
		return
	}
	s.prom.triggers.add(1, "expired")
	s.terminate(r, StateExpired, s.cfg.Clock())
}

// cancelIfQueued drops a still-queued run from the admission queue and
// finalizes it as canceled. Returns whether it took effect. A run the pump
// already took off the queue but has not started is canceled too: startRun
// then finds it no longer queued and gives its reservation back.
func (s *Server) cancelIfQueued(r *Run) bool {
	s.adm.cancel(r.tkt)
	r.mu.Lock()
	if r.state != StateQueued {
		r.mu.Unlock()
		return false
	}
	s.terminate(r, StateCanceled, s.cfg.Clock())
	return true
}

// CancelRun cancels a run and returns its terminal status: a queued
// trigger is dropped from the queue; a run that has left the queue has its
// context canceled — the Controller stops at the next boundary and the
// cancellation sweep plus catalog detach release every reserved and
// resident byte — and CancelRun waits for it to finish, so the state is
// canceled, or succeeded/failed when the run won the race, never running.
func (s *Server) CancelRun(id string) (RunStatus, error) {
	r, err := s.runHandle(id)
	if err != nil {
		return RunStatus{}, err
	}
	if s.cancelIfQueued(r) {
		s.adm.reap()
		return r.status(), nil
	}
	r.mu.Lock()
	cancel := r.cancelRun
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	<-r.done
	return r.status(), nil
}

// Run returns a run's snapshot.
func (s *Server) Run(id string) (RunStatus, error) {
	r, err := s.runHandle(id)
	if err != nil {
		return RunStatus{}, err
	}
	return r.status(), nil
}

// TraceReport is a run's trace with its critical-path analysis — the body
// of GET /v1/runs/{id}/trace.
type TraceReport struct {
	RunID       string `json:"run_id"`
	Pipeline    string `json:"pipeline"`
	State       string `json:"state"`
	TraceID     string `json:"trace_id"`
	Traceparent string `json:"traceparent"`
	// Complete is false while the run is still queued or executing; spans
	// and the critical path then cover only what has happened so far.
	Complete     bool                 `json:"complete"`
	CriticalPath telemetry.CritReport `json:"critical_path"`
	Spans        []telemetry.SpanJSON `json:"spans"`
}

// RunTrace returns a run's trace snapshot and critical-path analysis.
func (s *Server) RunTrace(id string) (TraceReport, error) {
	r, err := s.runHandle(id)
	if err != nil {
		return TraceReport{}, err
	}
	spans := r.trace.Spans()
	st := r.status()
	return TraceReport{
		RunID:        r.id,
		Pipeline:     r.p.Name,
		State:        st.State,
		TraceID:      spans[0].TraceID.String(),
		Traceparent:  r.trace.Context().Traceparent(),
		Complete:     r.trace.Finished(),
		CriticalPath: telemetry.CriticalPath(spans, r.p.Parents),
		Spans:        telemetry.SpansToJSON(spans),
	}, nil
}

// runHandle returns the run object itself (the HTTP layer streams its
// events and waits on done).
func (s *Server) runHandle(id string) (*Run, error) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: run %q", ErrNotFound, id)
	}
	return r, nil
}

// QueryMV reads a materialized view from the pipeline's store. limit <= 0
// returns all rows; a positive limit decodes only that many leading rows of
// a chunked MV.
func (s *Server) QueryMV(pipelineName, mv string, limit int) (*table.Table, error) {
	p, err := s.pipeline(pipelineName)
	if err != nil {
		return nil, err
	}
	known := false
	for _, n := range p.Workload.Nodes {
		if n.Name == mv {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("%w: mv %q in pipeline %q", ErrNotFound, mv, pipelineName)
	}
	t, err := exec.LoadTableHead(p.Store, mv, limit)
	if errors.Is(err, storage.ErrNotFound) {
		return nil, fmt.Errorf("%w: mv %q not materialized yet", ErrNotFound, mv)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: mv %q: %w", ErrUnreadable, mv, err)
	}
	if limit > 0 && t.NumRows() > limit { // a v1 file, which decodes whole
		for _, c := range t.Cols {
			*c = c.Slice(0, limit)
		}
	}
	return t, nil
}
