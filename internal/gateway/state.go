package gateway

import (
	"context"
	"slices"
	"sort"
	"time"

	"github.com/shortcircuit-db/sc/internal/introspect"
	"github.com/shortcircuit-db/sc/internal/introspect/alert"
	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/sched"
)

// evictionLogCap bounds the eviction timeline of /v1/state/catalog: the
// newest Evicted events across the retained runs.
const evictionLogCap = 256

// snapshot is one reading of every owner of the gateway's state, each read
// once: the registry, the admitter, the shared pool, the scheduler, the
// ledger, the alert notifier and the live run catalogs. /healthz, every
// /metrics gauge and /v1/state/{sched,catalog} are projections of it, so
// what they say about one state agrees.
type snapshot struct {
	at        time.Time
	pipelines int
	tenants   []string // of the registered pipelines, sorted
	adm       admission
	pool      memcat.PoolStats
	sched     sched.Snapshot
	ledger    ledger.Stats
	alerts    *alert.Stats // nil without a webhook
	catalog   introspect.CatalogReport
}

// snapshot reads the server's state. Each owner's lock is taken once and
// released before the next: the registry is copied under s.mu, then the
// admitter, pool, scheduler, ledger and each run are read in turn.
func (s *Server) snapshot() *snapshot {
	sn := &snapshot{at: s.cfg.Clock()}
	s.mu.Lock()
	sn.pipelines = len(s.pipelines)
	for _, p := range s.pipelines {
		if !slices.Contains(sn.tenants, p.tenant) {
			sn.tenants = append(sn.tenants, p.tenant)
		}
	}
	// retire moves a run from s.runs to evictionsRetired under s.mu, so
	// reading both in one hold counts every eviction exactly once.
	runs := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	retired := s.evictionsRetired
	s.mu.Unlock()
	sort.Strings(sn.tenants)
	sort.Slice(runs, func(i, j int) bool { return runs[i].id < runs[j].id })

	sn.adm = s.adm.snapshot()
	sn.pool = s.pool.Stats()
	sn.sched = s.sched.Stats()
	sn.ledger = s.fin.Ledger.Stats()
	if s.fin.Alerts != nil {
		st := s.fin.Alerts.Stats()
		sn.alerts = &st
	}
	sn.catalog = sn.catalogReport(runs, retired)
	return sn
}

// catalogReport builds the body of GET /v1/state/catalog: every entry
// resident in a live run's catalog with its owner, codec mix and eviction
// rank under the cost-model score, plus the eviction timeline read off the
// retained runs' traces. UsedBytes comes from the pool and EntryBytes from
// summing entries — the two agree byte-for-byte because every run catalog
// draws from the pool.
func (sn *snapshot) catalogReport(runs []*Run, retired int64) introspect.CatalogReport {
	rep := introspect.CatalogReport{
		At:            sn.at,
		BudgetBytes:   sn.pool.Capacity,
		ReservedBytes: sn.pool.Reserved,
		UsedBytes:     sn.pool.Used,
		PeakUsedBytes: sn.pool.PeakUsed,
		EvictionsSeen: retired,
	}
	for _, r := range runs {
		r.mu.Lock()
		cat, evs, closed := r.cat, r.evicted, r.logClosed
		r.mu.Unlock()
		if !closed {
			evs = r.evictions()
		}
		rep.Evictions = append(rep.Evictions, evs...)
		rep.EvictionsSeen += int64(len(evs))
		if cat == nil {
			continue
		}
		// Score each resident entry under the pipeline's current knapsack,
		// so eviction rank reflects what the optimizer values right now.
		score := make(map[string]float64)
		prob := r.p.Problem(sn.adm.tenants[r.p.tenant].slice)
		for i, n := range r.p.Workload.Nodes {
			score[n.Name] = prob.Scores[i]
		}
		for _, e := range cat.Entries() {
			ce := introspect.CatalogEntry{
				Pipeline: r.p.Name, Tenant: r.p.tenant, RunID: r.id,
				EntryInfo: e,
			}
			if !e.LastAccess.IsZero() {
				ce.LastAccessAgeSeconds = sn.at.Sub(e.LastAccess).Seconds()
			}
			ce.ScoreSeconds = score[e.Name]
			rep.Entries = append(rep.Entries, ce)
		}
	}
	sort.SliceStable(rep.Evictions, func(i, j int) bool { return rep.Evictions[i].At.Before(rep.Evictions[j].At) })
	if over := len(rep.Evictions) - evictionLogCap; over > 0 {
		rep.Evictions = rep.Evictions[over:]
	}
	introspect.FinishCatalogReport(&rep)
	return rep
}

// evictions reads the Evicted events off the run's trace, attributed to the
// run.
func (r *Run) evictions() []introspect.EvictionEvent {
	events, _, _ := r.trace.Events(0)
	var out []introspect.EvictionEvent
	for _, e := range events {
		if e.Kind == obs.Evicted {
			out = append(out, introspect.EvictionEvent{
				Pipeline: r.p.Name, Tenant: r.p.tenant, RunID: r.id,
				Name: e.Node, Bytes: e.Bytes, Reason: e.Reason, At: e.At,
			})
		}
	}
	return out
}

// Stats snapshots server-wide admission and budget state: the body of
// /healthz and the bench report.
func (s *Server) Stats() Stats {
	sn := s.snapshot()
	return Stats{
		Pipelines:      sn.pipelines,
		QueueDepth:     len(sn.adm.queue),
		Admitted:       sn.adm.admitted,
		Enqueued:       sn.adm.enqueued,
		Rejected:       sn.adm.rejected,
		Expired:        sn.adm.expired,
		BudgetBytes:    sn.pool.Capacity,
		ReservedBytes:  sn.pool.Reserved,
		UsedBytes:      sn.pool.Used,
		PeakUsedBytes:  sn.pool.PeakUsed,
		PeakReserved:   sn.pool.PeakReserved,
		SchedTokens:    sn.sched.Tokens,
		SchedIdle:      sn.sched.Idle,
		SchedCommitted: sn.sched.Committed,
	}
}

// CatalogState snapshots the shared Memory Catalog for
// GET /v1/state/catalog (see snapshot.catalogReport).
func (s *Server) CatalogState() introspect.CatalogReport {
	return s.snapshot().catalog
}

// SchedState snapshots the scheduler for GET /v1/state/sched: the
// token pool (in flight, idle, soft-committed), the catalog pool's byte
// reservations, each tenant's slice and hold, and the admission queue with
// each trigger's blocking reason.
func (s *Server) SchedState() introspect.SchedReport {
	sn := s.snapshot()
	rep := introspect.SchedReport{
		At:                  sn.at,
		Snapshot:            sn.sched,
		BudgetBytes:         sn.pool.Capacity,
		ReservedCatalogByte: sn.pool.Reserved,
		QueueDepth:          len(sn.adm.queue),
		Queue:               sn.adm.queue,
	}
	for _, t := range sn.tenants {
		tb := sn.adm.tenants[t]
		rep.Tenants = append(rep.Tenants, introspect.TenantState{
			Tenant: t, SliceBytes: tb.slice, ReservedBytes: tb.reserved,
		})
	}
	return rep
}

// ExplainPipeline re-solves the pipeline's knapsack from its current
// learned execution metadata — exactly the plan the next trigger would run
// — and explains every MV's flag decision: the sized score, predicted
// encoded bytes, the marginal byte cost that decided it, and what would
// flip it. The body of GET /v1/pipelines/{p}/explain.
func (s *Server) ExplainPipeline(name string) (*introspect.ExplainReport, error) {
	p, err := s.pipeline(name)
	if err != nil {
		return nil, err
	}
	pr, plan, _, err := p.Plan(context.Background(), s.adm.tenantSlice(p.tenant), nil)
	if err != nil {
		return nil, err
	}
	return p.Explain(pr, plan), nil
}
