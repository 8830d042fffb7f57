package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/telemetry"
)

// delayStore wraps a Store and injects a settable latency into reads of
// objects whose name contains the target substring — a synthetic node
// slowdown the detector should catch.
type delayStore struct {
	storage.Store
	target  string
	delayNs atomic.Int64
}

func (d *delayStore) Read(name string) ([]byte, error) {
	if ns := d.delayNs.Load(); ns > 0 && strings.Contains(name, d.target) {
		time.Sleep(time.Duration(ns))
	}
	return d.Store.Read(name)
}

// recordExporter retains every exported trace; with TailSample set, only
// runs the ledger decided to keep should land here.
type recordExporter struct {
	mu     sync.Mutex
	traces [][]telemetry.Span
}

func (r *recordExporter) Export(spans []telemetry.Span) {
	cp := make([]telemetry.Span, len(spans))
	copy(cp, spans)
	r.mu.Lock()
	r.traces = append(r.traces, cp)
	r.mu.Unlock()
}

func (r *recordExporter) Close() error { return nil }

func (r *recordExporter) traceIDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.traces))
	for _, tr := range r.traces {
		out = append(out, tr[0].TraceID.String())
	}
	return out
}

// refreshOK triggers one synchronous refresh and requires success.
func refreshOK(t *testing.T, s *Server, pipeline string) RunStatus {
	t.Helper()
	r, err := s.Trigger(pipeline)
	if err != nil {
		t.Fatal(err)
	}
	<-r.done
	st, _ := s.Run(r.id)
	if st.State != StateSucceeded {
		t.Fatalf("refresh: %q (%s)", st.State, st.Error)
	}
	return st
}

// TestGatewayAnomalyHealthEndToEnd is the acceptance path: four healthy
// refreshes learn baselines, a fifth with an artificially slowed base-table
// read must (a) get exactly its slowed node flagged as a wall regression,
// (b) be the only run whose trace survives tail sampling, and (c) leave a
// nonzero misprediction ratio because the reservation never matches the
// actual peak exactly.
func TestGatewayAnomalyHealthEndToEnd(t *testing.T) {
	ds := &delayStore{Store: storage.NewMemStore(), target: "sales"}
	exp := &recordExporter{}
	s, ts := newTestGateway(t, Config{
		TailSample:    true,
		TraceExporter: exp,
		NewStore:      func(string) storage.Store { return ds },
	})
	if err := s.Register(PipelineSpec{
		Name: "beer", Tenant: "brewer",
		MVs:    pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		refreshOK(t, s, "beer")
	}
	// Slow every read of the sales base table: only mv_daily scans it.
	ds.delayNs.Store(int64(150 * time.Millisecond))
	refreshOK(t, s, "beer")
	ds.delayNs.Store(0)

	history := s.RunHistory(ledger.Filter{Pipeline: "beer"})
	if len(history) != 5 {
		t.Fatalf("history = %d runs, want 5", len(history))
	}
	latest := history[0]
	var wallRegressions []ledger.Anomaly
	for _, a := range latest.Anomalies {
		if a.Kind == ledger.KindWallRegression {
			wallRegressions = append(wallRegressions, a)
		}
	}
	if len(wallRegressions) != 1 || wallRegressions[0].Node != "mv_daily" {
		t.Fatalf("want exactly mv_daily wall-regressed, got %+v (all: %+v)",
			wallRegressions, latest.Anomalies)
	}
	for i, run := range history[1:] {
		if run.Anomalous() {
			t.Fatalf("healthy run %d flagged: %+v", i, run.Anomalies)
		}
	}

	// Tail sampling: only the anomalous run's trace was exported.
	kept := exp.traceIDs()
	if len(kept) != 1 || kept[0] != latest.TraceID {
		t.Fatalf("tail sampling kept %v, want only %s", kept, latest.TraceID)
	}

	// Admission reserves predicted×headroom; the actual peak never lands on
	// it exactly, so the learned misprediction ratio is nonzero.
	if latest.ReservedBytes <= 0 {
		t.Fatalf("latest run reserved nothing: %+v", latest)
	}
	if got := s.fin.Ledger.Stats().Mispredict["beer"]; got <= 0 {
		t.Fatalf("mispredict ratio = %g, want > 0", got)
	}

	// The health endpoint rolls it up: degraded verdict, mv_daily on top.
	resp, err := http.Get(ts.URL + "/v1/pipelines/beer/health")
	if err != nil {
		t.Fatal(err)
	}
	h := decodeBody[ledger.Health](t, resp)
	if h.Verdict != ledger.VerdictDegraded {
		t.Fatalf("verdict = %q, want degraded (health: %+v)", h.Verdict, h)
	}
	if h.AnomalyCount == 0 || len(h.TopRegressions) == 0 || h.TopRegressions[0].Node != "mv_daily" {
		t.Fatalf("regressions: %+v", h.TopRegressions)
	}
	if h.MispredictRatio <= 0 {
		t.Fatalf("health mispredict ratio = %g, want > 0", h.MispredictRatio)
	}
	var nodeSeen bool
	for _, n := range h.Nodes {
		if n.Node == "mv_daily" && n.Regressed {
			nodeSeen = true
		}
	}
	if !nodeSeen {
		t.Fatalf("mv_daily not marked regressed in node health: %+v", h.Nodes)
	}

	// Unknown pipeline is a 404.
	resp, err = http.Get(ts.URL + "/v1/pipelines/ghost/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost health: %d", resp.StatusCode)
	}
}

// TestRunHistoryHTTP checks the /v1/runs filters over a ledger populated
// by hand so the expectations are exact.
func TestRunHistoryHTTP(t *testing.T) {
	s, ts := newTestGateway(t, Config{})
	led := s.fin.Ledger
	mk := func(id, pipeline, tenant, outcome string) ledger.RunSummary {
		return ledger.RunSummary{
			RunID: id, Pipeline: pipeline, Tenant: tenant, Outcome: outcome,
			Start: time.Date(2026, 8, 2, 9, 0, 0, 0, time.UTC), WallSeconds: 0.1,
		}
	}
	led.Append(mk("r1", "a", "t1", ledger.OutcomeSucceeded))
	led.Append(mk("r2", "b", "t2", ledger.OutcomeSucceeded))
	led.Append(mk("r3", "a", "t1", ledger.OutcomeFailed))

	get := func(query string) runHistoryResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/runs" + query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/runs%s: %d", query, resp.StatusCode)
		}
		return decodeBody[runHistoryResponse](t, resp)
	}

	if got := get(""); got.Count != 3 || got.Runs[0].RunID != "r3" {
		t.Fatalf("all runs: %+v", got)
	}
	if got := get("?pipeline=a"); got.Count != 2 {
		t.Fatalf("pipeline filter: %+v", got)
	}
	if got := get("?tenant=t2"); got.Count != 1 || got.Runs[0].RunID != "r2" {
		t.Fatalf("tenant filter: %+v", got)
	}
	if got := get("?outcome=failed"); got.Count != 1 || got.Runs[0].RunID != "r3" {
		t.Fatalf("outcome filter: %+v", got)
	}
	if got := get("?anomalous=1"); got.Count != 0 || got.Runs == nil {
		t.Fatalf("anomalous filter must return an empty, non-nil list: %+v", got)
	}
	if got := get("?limit=1"); got.Count != 1 || got.Runs[0].RunID != "r3" {
		t.Fatalf("limit: %+v", got)
	}
	resp, err := http.Get(ts.URL + "/v1/runs?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit: %d", resp.StatusCode)
	}
}

// TestPipelineHealthGolden pins the /v1/pipelines/{p}/health JSON shape
// against a golden file, with the ledger populated by hand-built summaries
// so every derived number is deterministic.
func TestPipelineHealthGolden(t *testing.T) {
	s, ts := newTestGateway(t, Config{})
	if err := s.Register(PipelineSpec{
		Name: "p", Tenant: "t",
		MVs:    pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}
	led := s.fin.Ledger
	mk := func(i int, nodeWall float64) ledger.RunSummary {
		return ledger.RunSummary{
			RunID: "run-" + string(rune('0'+i)), Pipeline: "p", Tenant: "t",
			Outcome: ledger.OutcomeSucceeded,
			TraceID: "0102030405060708090a0b0c0d0e0f10",
			Start:   time.Date(2026, 8, 2, 10, i, 0, 0, time.UTC),

			WallSeconds:      nodeWall + 0.05,
			QueueWaitSeconds: 0.005,
			ReservedBytes:    1000,
			ActualPeakBytes:  900,
			Mispredict:       0.1,
			Nodes: []ledger.NodeSummary{
				{Node: "n", WallSeconds: nodeWall, SelfSeconds: nodeWall, OutputBytes: 4096, Ratio: 4},
			},
			CritPath: []string{"n"}, CritPathSeconds: nodeWall,
		}
	}
	for i := 1; i <= 4; i++ {
		led.Append(mk(i, 0.100))
	}
	led.Append(mk(5, 0.200)) // deterministic wall regression on node n

	resp, err := http.Get(ts.URL + "/v1/pipelines/p/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health: %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, bytes.TrimSpace(body), "", "  "); err != nil {
		t.Fatal(err)
	}
	pretty.WriteByte('\n')
	golden := filepath.Join("testdata", "health.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, pretty.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if pretty.String() != string(want) {
		t.Fatalf("health shape drifted from %s (run with -update to accept):\ngot:\n%s\nwant:\n%s",
			golden, pretty.String(), want)
	}
}
