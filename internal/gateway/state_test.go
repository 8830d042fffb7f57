package gateway

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/introspect"
	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

// gateStore wraps a Store and holds every Write on a gate channel while it
// is closed. Flagged outputs release from the Memory Catalog only after
// their background materialization finishes, so a closed gate pins every
// flagged entry resident — the deterministic freeze-frame the catalog
// introspection tests snapshot against.
type gateStore struct {
	storage.Store
	mu      sync.Mutex
	gate    chan struct{}
	arrived atomic.Int32  // writes that reached the gate since block()
	parked  chan struct{} // receives once a write has reached the gate
}

func (g *gateStore) block() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.parked = make(chan struct{}, 1)
	g.arrived.Store(0)
	g.mu.Unlock()
}

func (g *gateStore) open() {
	g.mu.Lock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
	g.mu.Unlock()
}

func (g *gateStore) Write(name string, data []byte) error {
	g.mu.Lock()
	gate, parked := g.gate, g.parked
	g.mu.Unlock()
	if gate != nil {
		g.arrived.Add(1)
		select {
		case parked <- struct{}{}:
		default:
		}
		<-gate
	}
	return g.Store.Write(name, data)
}

// scrapeGauge fetches /metrics and returns the value of an unlabeled gauge.
func scrapeGauge(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("gauge %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("gauge %s not in exposition", name)
	return 0
}

// TestStateCatalogAndSchedIntrospection freezes a refresh mid-flight (all
// background materializations gated) and checks that GET /v1/state/catalog
// agrees byte-for-byte with the pool and the /metrics gauges, that a second
// trigger shows up in GET /v1/state/sched blocked on the busy pipeline, and
// that opening the gate drains everything into the eviction timeline with
// per-run attribution.
func TestStateCatalogAndSchedIntrospection(t *testing.T) {
	gs := &gateStore{Store: storage.NewMemStore()}
	s, ts := newTestGateway(t, Config{
		// Room for all three MVs at the 1 MiB-per-node size guess, so the
		// optimizer flags the whole pipeline on the first (unlearned) run.
		GlobalBudget: 8 << 20,
		NewStore:     func(string) storage.Store { return gs },
	})
	if err := s.Register(PipelineSpec{
		Name: "beer", Tenant: "brewer",
		MVs:    pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}

	// The tiny sales MVs all fit the 1 MiB budget with positive scores, so
	// the optimizer flags all three; the catalog assertions below lean on
	// that, so pin it via the explain surface first.
	exp, err := s.ExplainPipeline("beer")
	if err != nil {
		t.Fatal(err)
	}
	if exp.FlaggedCount != 3 {
		t.Fatalf("flagged %d of %d MVs, want all 3: %+v", exp.FlaggedCount, exp.Nodes, exp.Decisions)
	}

	gs.block()
	r1, err := s.Trigger("beer")
	if err != nil {
		t.Fatal(err)
	}
	// All three flagged outputs are Put into the catalog and then handed to
	// background writers that are now parked at the gate: once the third
	// arrives, the run is quiescent and the catalog is a fixed point.
	for deadline := time.Now().Add(5 * time.Second); gs.arrived.Load() < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/3 materializations reached the gate", gs.arrived.Load())
		}
		time.Sleep(time.Millisecond)
	}

	rep := s.CatalogState()
	if rep.EntryCount != 3 || len(rep.Entries) != 3 {
		t.Fatalf("entries = %d, want 3: %+v", rep.EntryCount, rep.Entries)
	}
	if rep.EntryBytes != rep.UsedBytes {
		t.Fatalf("per-entry sum %d disagrees with pool used %d", rep.EntryBytes, rep.UsedBytes)
	}
	if rep.BudgetBytes != 8<<20 || rep.ReservedBytes <= 0 {
		t.Fatalf("budget %d reserved %d", rep.BudgetBytes, rep.ReservedBytes)
	}
	ranks := make(map[int]bool)
	for _, e := range rep.Entries {
		if e.Pipeline != "beer" || e.Tenant != "brewer" || e.RunID != r1.ID() {
			t.Fatalf("entry attribution: %+v", e)
		}
		if e.ScoreSeconds <= 0 {
			t.Fatalf("entry %s has no cost-model score: %+v", e.Name, e)
		}
		if e.LastAccessAgeSeconds < 0 {
			t.Fatalf("entry %s: negative last-access age", e.Name)
		}
		ranks[e.EvictionRank] = true
	}
	if !ranks[1] || !ranks[2] || !ranks[3] {
		t.Fatalf("eviction ranks not a 1..3 permutation: %+v", rep.Entries)
	}

	// The HTTP surface serves the same report, and the /metrics catalog
	// gauges agree with its byte totals — nothing can move while the gate
	// holds every writer.
	resp, err := http.Get(ts.URL + "/v1/state/catalog")
	if err != nil {
		t.Fatal(err)
	}
	httpRep := decodeBody[introspect.CatalogReport](t, resp)
	if httpRep.EntryCount != 3 || httpRep.EntryBytes != rep.EntryBytes {
		t.Fatalf("HTTP catalog = %d entries %d bytes, want 3 / %d",
			httpRep.EntryCount, httpRep.EntryBytes, rep.EntryBytes)
	}
	if got := scrapeGauge(t, ts.URL, "scserve_catalog_entry_bytes"); int64(got) != rep.EntryBytes {
		t.Fatalf("scserve_catalog_entry_bytes = %g, want %d", got, rep.EntryBytes)
	}
	if got := scrapeGauge(t, ts.URL, "scserve_catalog_used_bytes"); int64(got) != rep.EntryBytes {
		t.Fatalf("scserve_catalog_used_bytes = %g, want %d", got, rep.EntryBytes)
	}

	// A second trigger on the busy pipeline queues; the scheduler snapshot
	// must name what it is blocked on.
	r2, err := s.Trigger("beer")
	if err != nil {
		t.Fatal(err)
	}
	sr := s.SchedState()
	if sr.QueueDepth != 1 || len(sr.Queue) != 1 {
		t.Fatalf("queue depth = %d, want 1: %+v", sr.QueueDepth, sr.Queue)
	}
	qe := sr.Queue[0]
	if qe.Pipeline != "beer" || qe.Tenant != "brewer" || qe.BlockedOn != "pipeline-busy" {
		t.Fatalf("queue head = %+v, want beer blocked on pipeline-busy", qe)
	}
	if qe.NeedBytes <= 0 {
		t.Fatalf("queued trigger reserves nothing: %+v", qe)
	}
	var brewer *introspect.TenantState
	for i := range sr.Tenants {
		if sr.Tenants[i].Tenant == "brewer" {
			brewer = &sr.Tenants[i]
		}
	}
	if brewer == nil || brewer.ReservedBytes <= 0 || brewer.SliceBytes != 8<<20 {
		t.Fatalf("tenant state: %+v", sr.Tenants)
	}
	resp, err = http.Get(ts.URL + "/v1/state/sched")
	if err != nil {
		t.Fatal(err)
	}
	httpSched := decodeBody[introspect.SchedReport](t, resp)
	if httpSched.QueueDepth != 1 || httpSched.Queue[0].BlockedOn != "pipeline-busy" {
		t.Fatalf("HTTP sched state: %+v", httpSched)
	}

	// Open the gate: both runs drain; their "release" evictions reach the
	// eviction timeline from the runs' traces, with attribution.
	gs.open()
	<-r1.done
	<-r2.done
	for _, r := range []*Run{r1, r2} {
		if st := r.Status(); st.State != StateSucceeded {
			t.Fatalf("run %s: %q (%s)", r.ID(), st.State, st.Error)
		}
	}
	rep = s.CatalogState()
	if rep.EntryCount != 0 || rep.UsedBytes != 0 {
		t.Fatalf("catalog not drained: %d entries, %d bytes", rep.EntryCount, rep.UsedBytes)
	}
	if rep.EvictionsSeen < 6 {
		t.Fatalf("evictions seen = %d, want >= 6 (3 releases per run)", rep.EvictionsSeen)
	}
	byRun := make(map[string]int)
	for _, ev := range rep.Evictions {
		if ev.Reason != "release" {
			t.Fatalf("unexpected eviction reason %q: %+v", ev.Reason, ev)
		}
		byRun[ev.RunID]++
	}
	if byRun[r1.ID()] != 3 || byRun[r2.ID()] != 3 {
		t.Fatalf("eviction attribution = %v, want 3 per run", byRun)
	}
	if got := scrapeGauge(t, ts.URL, "scserve_catalog_evictions_total"); got < 6 {
		t.Fatalf("scserve_catalog_evictions_total = %g, want >= 6", got)
	}
}

// scrapeSeries fetches /metrics and returns every sample by its series,
// e.g. `scserve_tenant_reserved_bytes{tenant="a"}`.
func scrapeSeries(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q", line)
		}
		out[line[:i]] = v
	}
	return out
}

// TestReadSurfacesAgree freezes one state — a compressed-path run held with
// its flagged outputs resident, a trigger queued behind it and one canceled
// behind that — beside an idle tenant, and checks that /healthz,
// /v1/state/sched, /v1/state/catalog and /metrics report the same budget,
// reserved and used bytes, queue depth, token counts, per-tenant reserved
// and catalog bytes, and catalog entry and codec bytes.
func TestReadSurfacesAgree(t *testing.T) {
	gs := &gateStore{Store: storage.NewMemStore()}
	s, ts := newTestGateway(t, Config{GlobalBudget: 8 << 20, NewStore: func(string) storage.Store { return gs }})
	for _, spec := range []PipelineSpec{
		{Name: "beer", Tenant: "brewer", Encoding: true},
		{Name: "idle", Tenant: "other"},
	} {
		spec.MVs = pipelineRequest("", "").MVs
		spec.Tables = map[string]*table.Table{"sales": mustTable(t, salesJSON())}
		if err := s.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	if exp, err := s.ExplainPipeline("beer"); err != nil || exp.FlaggedCount != 3 {
		t.Fatalf("explain: %v, want all 3 MVs flagged", err)
	}
	gs.block()
	defer gs.open() // a failing assertion must not leave Close waiting on the held run
	held, err := s.Trigger("beer")
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); gs.arrived.Load() < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/3 materializations reached the gate", gs.arrived.Load())
		}
		time.Sleep(time.Millisecond)
	}
	var queued []*Run
	for i := 0; i < 2; i++ {
		r, err := s.Trigger("beer")
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, r)
	}
	if st, err := s.CancelRun(queued[1].ID()); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel behind the head: %+v, %v", st, err)
	}

	get := func(path string) *http.Response {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	health := decodeBody[Stats](t, get("/healthz"))
	sched := decodeBody[introspect.SchedReport](t, get("/v1/state/sched"))
	cat := decodeBody[introspect.CatalogReport](t, get("/v1/state/catalog"))
	m := scrapeSeries(t, ts.URL)
	if cat.EntryCount != 3 || len(cat.CodecBytes) == 0 || health.ReservedBytes != held.Status().ReservedBytes {
		t.Fatalf("frozen state: %d entries, codec bytes %v, reserved %d: the comparison below would be vacuous",
			cat.EntryCount, cat.CodecBytes, health.ReservedBytes)
	}
	same := func(what string, vals ...int64) {
		t.Helper()
		for _, v := range vals[1:] {
			if v != vals[0] {
				t.Errorf("%s disagrees across surfaces: %v", what, vals)
				return
			}
		}
	}
	gauge := func(series string) int64 {
		t.Helper()
		v, ok := m[series]
		if !ok {
			t.Fatalf("no %s in /metrics", series)
		}
		return int64(v)
	}
	same("budget bytes", health.BudgetBytes, sched.BudgetBytes, cat.BudgetBytes, gauge("scserve_catalog_budget_bytes"))
	same("reserved bytes", health.ReservedBytes, sched.ReservedCatalogByte, cat.ReservedBytes, gauge("scserve_catalog_reserved_bytes"))
	same("used bytes", health.UsedBytes, cat.UsedBytes, cat.EntryBytes,
		gauge("scserve_catalog_used_bytes"), gauge("scserve_catalog_entry_bytes"))
	same("queue depth", 1, int64(health.QueueDepth), int64(sched.QueueDepth), int64(len(sched.Queue)), gauge("scserve_queue_depth"))
	same("tokens", int64(health.SchedTokens), int64(sched.Tokens))
	same("idle tokens", int64(health.SchedIdle), int64(sched.Idle), gauge("scserve_sched_tokens_idle"))
	same("committed tokens", int64(health.SchedCommitted), int64(sched.Committed), gauge("scserve_sched_tokens_committed"))
	entryBytes := make(map[string]int64)
	for _, e := range cat.Entries {
		entryBytes[e.Tenant] += e.SizeBytes
	}
	if len(sched.Tenants) != 2 {
		t.Fatalf("tenants = %+v, want brewer and other", sched.Tenants)
	}
	for _, ten := range sched.Tenants {
		label := `{tenant="` + ten.Tenant + `"}`
		same(ten.Tenant+" reserved bytes", ten.ReservedBytes, gauge("scserve_tenant_reserved_bytes"+label))
		same(ten.Tenant+" catalog bytes", entryBytes[ten.Tenant], gauge("scserve_tenant_catalog_bytes"+label))
	}
	same("brewer holds the reservation", sched.Tenants[0].ReservedBytes, health.ReservedBytes)
	for codec, b := range cat.CodecBytes {
		label := `{codec="` + codec + `"}`
		same(codec+" codec bytes", b, gauge("scserve_catalog_codec_bytes"+label))
		same(codec+" codec chunks", int64(cat.CodecChunks[codec]), gauge("scserve_catalog_codec_chunks"+label))
	}
}

// TestSchedStateTenantOrder: /v1/state/sched lists its tenants by name on
// every request, whatever order they registered in.
func TestSchedStateTenantOrder(t *testing.T) {
	s, ts := newTestGateway(t, Config{})
	for _, tenant := range []string{"c", "a", "b"} {
		if err := s.Register(PipelineSpec{
			Name: "p-" + tenant, Tenant: tenant,
			MVs:    pipelineRequest("", "").MVs,
			Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		resp, err := http.Get(ts.URL + "/v1/state/sched")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, ten := range decodeBody[introspect.SchedReport](t, resp).Tenants {
			got = append(got, ten.Tenant)
		}
		if !slices.Equal(got, []string{"a", "b", "c"}) {
			t.Fatalf("request %d: tenants %v, want a b c", i, got)
		}
	}
}

// TestExplainPipelineHTTP checks that GET /v1/pipelines/{p}/explain
// reports a decision with a sized score for every MV of a registered
// TPC-DS pipeline, before any refresh has run.
func TestExplainPipelineHTTP(t *testing.T) {
	s, ts := newTestGateway(t, Config{GlobalBudget: 8 << 20})
	spec := TPCDSSpec("dw", "analytics", 0.01)
	if err := s.Register(spec); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/pipelines/dw/explain")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("explain: %d %s", resp.StatusCode, b)
	}
	rep := decodeBody[introspect.ExplainReport](t, resp)
	if rep.Pipeline != "dw" || rep.Nodes != len(spec.MVs) || len(rep.Decisions) != len(spec.MVs) {
		t.Fatalf("explain covers %d decisions over %d nodes, want %d", len(rep.Decisions), rep.Nodes, len(spec.MVs))
	}
	want := make(map[string]bool, len(spec.MVs))
	for _, mv := range spec.MVs {
		want[mv.Name] = true
	}
	var flagged int
	for _, d := range rep.Decisions {
		if !want[d.Node] {
			t.Fatalf("decision for unknown MV %q", d.Node)
		}
		if d.Class == "" || d.Flip == "" {
			t.Fatalf("decision %s missing class or flip condition: %+v", d.Node, d)
		}
		if d.Flagged {
			flagged++
			if d.ScoreSeconds <= 0 {
				t.Fatalf("flagged %s without a positive sized score: %+v", d.Node, d)
			}
		}
	}
	if flagged != rep.FlaggedCount {
		t.Fatalf("flagged count %d != %d flagged decisions", rep.FlaggedCount, flagged)
	}

	resp, err = http.Get(ts.URL + "/v1/pipelines/ghost/explain")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost explain: %d", resp.StatusCode)
	}
}

// TestExplainPartsSumToScore: the read and write savings a decision reports
// are the ones its score was built from — also once the score holds an
// observed blocking write in place of the device model's. The first run
// plans from size guesses no node fits under, so every node writes blocking
// and is observed; the second runs the steady-state plan, whose budget holds
// some of the observed outputs (0.1–1 KB each) and not others.
func TestExplainPartsSumToScore(t *testing.T) {
	s, ts := newTestGateway(t, Config{GlobalBudget: 1500})
	if err := s.Register(TPCDSSpec("dw", "analytics", 0.01)); err != nil {
		t.Fatal(err)
	}
	for run, wantFlagged := range []bool{false, true} {
		r, err := s.Trigger("dw")
		if err != nil {
			t.Fatal(err)
		}
		<-r.Done()
		if st := r.Status(); st.State != StateSucceeded || (st.Flagged > 0) != wantFlagged {
			t.Fatalf("run %d: %+v, want succeeded with flagged nodes: %v", run, st, wantFlagged)
		}
		resp, err := http.Get(ts.URL + "/v1/pipelines/dw/explain")
		if err != nil {
			t.Fatal(err)
		}
		var observed int
		for _, d := range decodeBody[introspect.ExplainReport](t, resp).Decisions {
			want := math.Max(0, d.ReadSaveSeconds+d.WriteSaveSeconds)
			if math.Abs(want-d.ScoreSeconds) > 1e-9 {
				t.Errorf("after run %d, %s: read %v + write %v s, but the knapsack maximised %v s",
					run, d.Node, d.ReadSaveSeconds, d.WriteSaveSeconds, d.ScoreSeconds)
			}
			if o, _ := r.p.Metrics.Latest(d.Node); o.WriteTime > 0 {
				observed++
				if d.WriteSaveSeconds != o.WriteTime.Seconds() {
					t.Errorf("after run %d, %s: write saving %v s, observed blocking write %v", run, d.Node, d.WriteSaveSeconds, o.WriteTime)
				}
			}
		}
		if observed == 0 {
			t.Fatalf("after run %d no node has an observed blocking write", run)
		}
	}
}

// TestGatewayAlertWebhookEndToEnd is the alerting acceptance path: an
// induced wall regression must reach the webhook exactly once — surviving
// one simulated 5xx on first delivery — with no duplicate inside the dedup
// cooldown, alongside the pipeline's health-verdict transition.
func TestGatewayAlertWebhookEndToEnd(t *testing.T) {
	var (
		hookMu  sync.Mutex
		bodies  []string
		fail503 = true
	)
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		hookMu.Lock()
		defer hookMu.Unlock()
		if fail503 {
			fail503 = false
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		bodies = append(bodies, string(b))
	}))
	defer hook.Close()

	ds := &delayStore{Store: storage.NewMemStore(), target: "sales"}
	s, _ := newTestGateway(t, Config{
		AlertWebhook: hook.URL,
		NewStore:     func(string) storage.Store { return ds },
	})
	if err := s.Register(PipelineSpec{
		Name: "beer", Tenant: "brewer",
		MVs:    pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}

	// Four healthy refreshes learn the per-node wall baselines and settle
	// the health verdict (the first verdict is established silently).
	for i := 0; i < 4; i++ {
		refreshOK(t, s, "beer")
	}
	// Two slowed refreshes: the first regresses and must alert; the second
	// lands inside the default cooldown, so whether or not the detector
	// re-flags it, no second wall_regression may reach the webhook.
	ds.delayNs.Store(int64(150 * time.Millisecond))
	refreshOK(t, s, "beer")
	refreshOK(t, s, "beer")
	ds.delayNs.Store(0)

	// Close drains the notifier queue; newTestGateway's cleanup close is a
	// no-op afterwards.
	s.Close()

	hookMu.Lock()
	got := append([]string(nil), bodies...)
	hookMu.Unlock()
	var wallAlerts, transitions int
	for _, b := range got {
		switch {
		case strings.Contains(b, `"kind":"wall_regression"`):
			wallAlerts++
			for _, want := range []string{`"pipeline":"beer"`, `"node":"mv_daily"`, `"severity":"warning"`} {
				if !strings.Contains(b, want) {
					t.Fatalf("wall alert missing %s: %s", want, b)
				}
			}
		case strings.Contains(b, `"kind":"health_transition"`):
			transitions++
			if !strings.Contains(b, `"to_verdict":"degraded"`) {
				t.Fatalf("transition alert: %s", b)
			}
		}
	}
	if wallAlerts != 1 {
		t.Fatalf("wall_regression deliveries = %d, want exactly 1 (bodies: %q)", wallAlerts, got)
	}
	if transitions != 1 {
		t.Fatalf("health transitions = %d, want 1 (bodies: %q)", transitions, got)
	}
	st := s.fin.Alerts.Stats()
	if st.Retries < 1 {
		t.Fatalf("stats = %+v, want at least one retry for the simulated 503", st)
	}
	if st.Delivered != int64(len(got)) {
		t.Fatalf("delivered %d but webhook saw %d bodies", st.Delivered, len(got))
	}
}

// TestUnregisterForgetsPipelineMemory pins that what a pipeline remembers
// of its previous run — the health verdict behind transition alerts — and
// what the ledger learned die with it: a different DAG registered under
// the same name starts from nothing. Its first verdict is silent even when
// it differs from the old pipeline's last one, and none of its spans link
// into the old pipeline's trace.
func TestUnregisterForgetsPipelineMemory(t *testing.T) {
	var (
		hookMu sync.Mutex
		bodies []string
	)
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		hookMu.Lock()
		bodies = append(bodies, string(b))
		hookMu.Unlock()
	}))
	defer hook.Close()

	gs := &gateStore{Store: storage.NewMemStore()}
	s, err := NewServer(Config{GlobalBudget: 1 << 20, AlertWebhook: hook.URL,
		NewStore: func(string) storage.Store { return gs }})
	if err != nil {
		t.Fatal(err)
	}
	sales := map[string]*table.Table{"sales": mustTable(t, salesJSON())}
	if err := s.Register(PipelineSpec{Name: "p", MVs: pipelineRequest("", "").MVs, Tables: sales, Encoding: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		refreshOK(t, s, "p")
	}
	old := refreshOK(t, s, "p") // verdict "healthy" and the ledger's baselines are now remembered
	if b := s.fin.Ledger.Baselines("p"); len(b) != 3 {
		t.Fatalf("ledger holds %d node baselines of p, want 3 (the test needs some to forget)", len(b))
	}
	oldTrace, err := s.RunTrace(old.ID)
	if err != nil {
		t.Fatal(err)
	}
	// A fifth run is parked mid-flight on its first write when the pipeline
	// is unregistered. It still ends — status, trace, /metrics counters —
	// but must not bring the forgotten ledger state back.
	gs.block()
	inflight, err := s.Trigger("p")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gs.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the in-flight run never reached the gate")
	}
	if err := s.Unregister("p"); err != nil {
		t.Fatal(err)
	}
	gs.open()
	<-inflight.Done()
	if st := inflight.Status(); st.State != StateSucceeded || st.Nodes != 3 {
		t.Fatalf("run in flight at Unregister ended %+v, want succeeded over 3 nodes", st)
	}
	if tr, err := s.RunTrace(inflight.ID()); err != nil || !tr.Complete {
		t.Fatalf("run in flight at Unregister left trace %+v (err %v), want a finished one", tr, err)
	}
	var metrics bytes.Buffer
	s.prom.write(&metrics, false, s.snapshot(true))
	if want := `scserve_refreshes_total{tenant="default",pipeline="p",status="succeeded"} 5`; !strings.Contains(metrics.String(), want) {
		t.Errorf("/metrics does not count the run in flight at Unregister: no %q", want)
	}
	if strings.Contains(metrics.String(), `scserve_mispredict_ratio{pipeline="p"}`) {
		t.Error("/metrics keeps a mispredict series for the unregistered pipeline")
	}
	if b := s.fin.Ledger.Baselines("p"); len(b) != 0 {
		t.Fatalf("unregistered pipeline keeps %d node baselines in the ledger", len(b))
	}
	if rows := s.RunHistory(ledger.Filter{Pipeline: "p"}); len(rows) != 0 {
		t.Fatalf("unregistered pipeline keeps %d ledger rows", len(rows))
	}
	if names := s.fin.Ledger.Stats().Mispredict; len(names) != 0 {
		t.Fatalf("ledger still knows pipelines %v", names)
	}

	// Same name, different DAG: mv_daily again, and a node that fails at
	// run time, so the new pipeline's first verdict is "failing".
	if err := s.Register(PipelineSpec{Name: "p", Tables: sales, Encoding: true, MVs: []MVSpec{
		{Name: "mv_daily", SQL: `SELECT day, SUM(amount) AS revenue FROM sales GROUP BY day`},
		{Name: "mv_broken", SQL: `SELECT missing_col FROM mv_daily`},
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r, err := s.Trigger("p")
		if err != nil {
			t.Fatal(err)
		}
		<-r.Done()
		st := r.Status()
		if st.State != StateFailed {
			t.Fatalf("run %d of the re-registered pipeline: %+v, want failed", i, st)
		}
		tr, err := s.RunTrace(r.ID())
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range tr.Spans {
			for _, l := range sp.Links {
				if l.TraceID == oldTrace.TraceID {
					t.Errorf("run %d span %q links into the unregistered pipeline's trace: %+v", i, sp.Name, l)
				}
			}
		}
	}
	if h, _ := s.PipelineHealth("p"); h.Verdict != ledger.VerdictFailing {
		t.Fatalf("verdict = %q, want failing (the test needs a verdict that differs from the old pipeline's)", h.Verdict)
	}
	s.Close() // drains the alert queue

	hookMu.Lock()
	defer hookMu.Unlock()
	for _, b := range bodies {
		if strings.Contains(b, `"kind":"health_transition"`) {
			t.Errorf("a re-registered pipeline's first verdict alerted: %s", b)
		}
	}
}

// TestSerializedFormOnGatewaySurfaces: a row-path pipeline on a one-token
// gateway whose tenant slice holds ss_1999's serialized bytes and not its
// rows. Once a run has observed the sizes, /explain reports the node kept
// as "serialized" at the bytes charged for it, and while the next run holds
// it resident /v1/state/catalog shows the entry in that form, with those
// bytes accounted and the size of the rows beside them.
func TestSerializedFormOnGatewaySurfaces(t *testing.T) {
	ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: 0.5, Seed: 1}) // what SeedTPCDS generates
	if err != nil {
		t.Fatal(err)
	}
	slice := ds.TotalBytes() / 5
	gs := &gateStore{Store: storage.NewMemStore()}
	s, ts := newTestGateway(t, Config{
		GlobalBudget: 4 * slice,
		Concurrency:  1,
		NewStore:     func(string) storage.Store { return gs },
	})
	spec := TPCDSSpec("dw", "analytics", 0.5)
	spec.Encoding, spec.TenantSlice = false, slice
	if err := s.Register(spec); err != nil {
		t.Fatal(err)
	}
	r1, err := s.Trigger("dw")
	if err != nil {
		t.Fatal(err)
	}
	<-r1.done

	resp, err := http.Get(ts.URL + "/v1/pipelines/dw/explain")
	if err != nil {
		t.Fatal(err)
	}
	var ss *introspect.FlagDecision
	exp := decodeBody[introspect.ExplainReport](t, resp)
	for i, d := range exp.Decisions {
		if d.Form != "none" && d.Form != "rows" && d.Form != "serialized" {
			t.Errorf("%s: form %q", d.Node, d.Form)
		}
		if d.Flagged != (d.ChargedBytes > 0) {
			t.Errorf("%s: flagged=%v charged %d bytes", d.Node, d.Flagged, d.ChargedBytes)
		}
		if d.Node == "ss_1999" {
			ss = &exp.Decisions[i]
		}
	}
	if ss == nil || ss.Form != "serialized" || ss.ChargedBytes >= ss.RawBytes || ss.RawBytes <= slice {
		t.Fatalf("ss_1999 under a %d-byte slice: %+v", slice, ss)
	}
	if exp.PeakBytes > slice {
		t.Fatalf("plan peaks at %d of %d bytes", exp.PeakBytes, slice)
	}

	// ss_1999 runs first; with every write held at the gate it cannot be
	// released, so it is resident from the first parked write on.
	gs.block()
	r2, err := s.Trigger("dw")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gs.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("no write reached the gate")
	}
	resp, err = http.Get(ts.URL + "/v1/state/catalog")
	if err != nil {
		t.Fatal(err)
	}
	cat := decodeBody[introspect.CatalogReport](t, resp)
	gs.open()
	<-r2.done
	if st := r2.Status(); st.State != StateSucceeded {
		t.Fatalf("run: %q (%s)", st.State, st.Error)
	}
	found := false
	for _, e := range cat.Entries {
		if e.Name != "ss_1999" {
			if e.Form != memcat.FormRows {
				t.Errorf("%s resident as %q", e.Name, e.Form)
			}
			continue
		}
		found = true
		if e.Form != memcat.FormSerialized || e.Compressed || e.SizeBytes != ss.ChargedBytes || e.RawBytes != ss.RawBytes {
			t.Errorf("catalog entry %+v, explained as %+v", e, ss)
		}
	}
	if !found {
		t.Fatalf("ss_1999 not resident: %+v", cat.Entries)
	}
	if cat.UsedBytes > slice {
		t.Errorf("catalog holds %d of %d bytes", cat.UsedBytes, slice)
	}
}

// TestStatsCostDoesNotGrowWithRetainedRuns: /healthz reports no catalog,
// so reading it gathers no retained run's evictions. Stats allocates as
// much with ~50 finished runs retained, each with evictions, as with one.
func TestStatsCostDoesNotGrowWithRetainedRuns(t *testing.T) {
	s, _ := newTestGateway(t, Config{GlobalBudget: 8 << 20, LedgerCapacity: 64})
	if err := s.Register(PipelineSpec{
		Name: "beer", Tenant: "brewer",
		MVs:    pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}
	if st := refreshOK(t, s, "beer"); st.Flagged == 0 {
		t.Fatal("a run that flags nothing evicts nothing: the comparison below would be vacuous")
	}
	one := testing.AllocsPerRun(50, func() { s.Stats() })
	for i := 1; i < 50; i++ {
		refreshOK(t, s, "beer")
	}
	if seen := s.CatalogState().EvictionsSeen; seen < 50 {
		t.Fatalf("%d evictions across 50 runs", seen)
	}
	if many := testing.AllocsPerRun(50, func() { s.Stats() }); many > one {
		t.Fatalf("Stats allocates %v times with 50 retained runs, %v with one", many, one)
	}
}
