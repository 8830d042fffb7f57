package gateway

import (
	"context"
	"sort"

	"github.com/shortcircuit-db/sc/internal/introspect"
	"github.com/shortcircuit-db/sc/internal/obs"
)

// evictionLogCap bounds the eviction timeline of /v1/state/catalog: the
// newest Evicted events across the retained runs.
const evictionLogCap = 256

// CatalogState snapshots the shared Memory Catalog for
// GET /v1/state/catalog: every entry resident in a live run's catalog with
// its owner, codec mix and eviction rank under the cost-model score, plus
// the eviction timeline read off the retained runs' traces. The report's
// UsedBytes comes from the pool and EntryBytes from summing entries — the
// two agree byte-for-byte because every run catalog draws from the pool.
func (s *Server) CatalogState() introspect.CatalogReport {
	now := s.cfg.Clock()
	rep := introspect.CatalogReport{
		At:            now,
		BudgetBytes:   s.pool.Capacity(),
		ReservedBytes: s.pool.Reserved(),
		UsedBytes:     s.pool.Used(),
		PeakUsedBytes: s.pool.PeakUsed(),
	}
	runs, retired := s.retained()
	rep.EvictionsSeen = retired
	for _, r := range runs {
		evs := r.evictions()
		rep.Evictions = append(rep.Evictions, evs...)
		rep.EvictionsSeen += int64(len(evs))

		r.mu.Lock()
		cat := r.cat
		r.mu.Unlock()
		if cat == nil {
			continue
		}
		// Score each resident entry under the pipeline's current knapsack,
		// so eviction rank reflects what the optimizer values right now.
		score := make(map[string]float64)
		prob := r.p.Problem(s.adm.tenantSlice(r.p.tenant))
		for i, n := range r.p.Workload.Nodes {
			score[n.Name] = prob.Scores[i]
		}
		for _, e := range cat.Entries() {
			ce := introspect.CatalogEntry{
				Pipeline: r.p.Name, Tenant: r.p.tenant, RunID: r.id,
				EntryInfo: e,
			}
			if !e.LastAccess.IsZero() {
				ce.LastAccessAgeSeconds = now.Sub(e.LastAccess).Seconds()
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

// retained snapshots the runs the server holds, in run order, together with
// the evictions of the runs it has dropped: retire moves a run from one to
// the other under s.mu, so a snapshot counts every eviction exactly once.
func (s *Server) retained() ([]*Run, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	runs := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].id < runs[j].id })
	return runs, s.evictionsRetired
}

// evictionsSeen counts every eviction of every run the server has hosted
// (scserve_catalog_evictions_total), without building the report.
func (s *Server) evictionsSeen() int64 {
	runs, n := s.retained()
	for _, r := range runs {
		n += int64(len(r.evictions()))
	}
	return n
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

// SchedState snapshots the scheduler for GET /v1/state/sched: the
// token pool (in flight, idle, soft-committed), the catalog pool's byte
// reservations, and the admission queue with each trigger's blocking
// reason.
func (s *Server) SchedState() introspect.SchedReport {
	rep := introspect.SchedReport{
		At:                  s.cfg.Clock(),
		Snapshot:            s.sched.Stats(),
		BudgetBytes:         s.pool.Capacity(),
		ReservedCatalogByte: s.pool.Reserved(),
		Queue:               s.adm.queueSnapshot(),
	}
	rep.QueueDepth = len(rep.Queue)
	for _, t := range s.tenantNames() {
		rep.Tenants = append(rep.Tenants, introspect.TenantState{
			Tenant:        t,
			SliceBytes:    s.adm.tenantSlice(t),
			ReservedBytes: s.adm.tenantReserved(t),
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
