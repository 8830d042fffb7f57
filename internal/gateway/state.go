package gateway

import (
	"context"

	"github.com/shortcircuit-db/sc/internal/introspect"
	"github.com/shortcircuit-db/sc/internal/memcat"
)

// serverEvLogCap bounds the server-wide eviction timeline: evictions
// harvested from finished run catalogs, newest wins.
const serverEvLogCap = 256

// CatalogState snapshots the shared Memory Catalog for
// GET /v1/state/catalog: every entry resident in a live run's catalog with
// its owner, codec mix and eviction rank under the cost-model score, plus
// the bounded eviction timeline. The report's UsedBytes comes from the pool
// and EntryBytes from summing entries — the two agree byte-for-byte because
// every run catalog draws from the pool.
func (s *Server) CatalogState() introspect.CatalogReport {
	now := s.cfg.Clock()
	rep := introspect.CatalogReport{
		At:            now,
		BudgetBytes:   s.pool.Capacity(),
		ReservedBytes: s.pool.Reserved(),
		UsedBytes:     s.pool.Used(),
		PeakUsedBytes: s.pool.PeakUsed(),
	}

	type liveRun struct {
		id  string
		cat *memcat.Catalog
		p   *pipeline
	}
	var live []liveRun
	s.mu.Lock()
	for _, r := range s.runs {
		r.mu.Lock()
		cat := r.cat
		r.mu.Unlock()
		if cat != nil {
			live = append(live, liveRun{r.id, cat, r.p})
		}
	}
	s.mu.Unlock()

	for _, lr := range live {
		// Score each resident entry under the pipeline's current knapsack,
		// so eviction rank reflects what the optimizer values right now.
		score := make(map[string]float64)
		prob := lr.p.Problem(s.adm.tenantSlice(lr.p.tenant))
		for i, n := range lr.p.Workload.Nodes {
			score[n.Name] = prob.Scores[i]
		}
		for _, e := range lr.cat.Entries() {
			ce := introspect.CatalogEntry{
				Pipeline: lr.p.Name, Tenant: lr.p.tenant, RunID: lr.id,
				EntryInfo: e,
			}
			if !e.LastAccess.IsZero() {
				ce.LastAccessAgeSeconds = now.Sub(e.LastAccess).Seconds()
			}
			ce.ScoreSeconds = score[e.Name]
			rep.Entries = append(rep.Entries, ce)
		}
		for _, ev := range lr.cat.Evictions() {
			rep.Evictions = append(rep.Evictions, introspect.EvictionEvent{
				Pipeline: lr.p.Name, Tenant: lr.p.tenant, RunID: lr.id, Eviction: ev,
			})
		}
		rep.EvictionsSeen += lr.cat.EvictionsSeen()
	}

	// Prepend the server-wide timeline (evictions harvested from finished
	// runs), oldest first, before the live catalogs' own rings.
	s.evMu.Lock()
	rep.Evictions = append(append([]introspect.EvictionEvent{}, s.evlog...), rep.Evictions...)
	rep.EvictionsSeen += s.evSeen
	s.evMu.Unlock()

	introspect.FinishCatalogReport(&rep)
	return rep
}

// harvestEvictions folds a finishing run catalog's eviction ring into the
// server-wide timeline, attributed to the run whose budget pressure caused
// them.
func (s *Server) harvestEvictions(r *Run, cat *memcat.Catalog) {
	evs := cat.Evictions()
	seen := cat.EvictionsSeen()
	if seen == 0 {
		return
	}
	s.evMu.Lock()
	defer s.evMu.Unlock()
	s.evSeen += seen
	for _, ev := range evs {
		s.evlog = append(s.evlog, introspect.EvictionEvent{
			Pipeline: r.p.Name, Tenant: r.p.tenant, RunID: r.id, Eviction: ev,
		})
	}
	if over := len(s.evlog) - serverEvLogCap; over > 0 {
		s.evlog = append(s.evlog[:0], s.evlog[over:]...)
	}
}

// SchedState snapshots the scheduler for GET /v1/state/sched: the
// token pool (in flight, idle, soft-committed), the in-flight byte
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
