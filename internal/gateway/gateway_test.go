package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
)

// salesJSON is the canonical inline base table used across the HTTP tests.
func salesJSON() tableJSON {
	return tableJSON{
		Schema: []columnJSON{
			{Name: "day", Type: "int"},
			{Name: "item", Type: "str"},
			{Name: "amount", Type: "float"},
		},
		Rows: [][]any{
			{json.Number("1"), "ale", json.Number("10")},
			{json.Number("1"), "bock", json.Number("5")},
			{json.Number("2"), "ale", json.Number("7")},
			{json.Number("2"), "ale", json.Number("3")},
			{json.Number("3"), "stout", json.Number("20")},
		},
	}
}

func pipelineRequest(name, tenant string) registerRequest {
	return registerRequest{
		Name:   name,
		Tenant: tenant,
		MVs: []MVSpec{
			{Name: "mv_daily", SQL: `SELECT day, SUM(amount) AS revenue FROM sales GROUP BY day`},
			{Name: "mv_top", SQL: `SELECT day, revenue FROM mv_daily WHERE revenue >= 10 ORDER BY revenue DESC`},
			{Name: "mv_count", SQL: `SELECT COUNT(*) AS days FROM mv_daily`},
		},
		Tables: map[string]tableJSON{"sales": salesJSON()},
	}
}

func newTestGateway(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.GlobalBudget == 0 {
		cfg.GlobalBudget = 1 << 20
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestGatewayEndToEnd walks the full HTTP session: register a pipeline
// with inline base tables, trigger a refresh synchronously, read the MVs
// back, replay the run's NDJSON event stream, and scrape /metrics.
func TestGatewayEndToEnd(t *testing.T) {
	s, ts := newTestGateway(t, Config{})

	resp := postJSON(t, ts.URL+"/v1/pipelines", pipelineRequest("beer", "brewer"))
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("register: %d %s", resp.StatusCode, b)
	}
	info := decodeBody[PipelineInfo](t, resp)
	if info.Name != "beer" || info.Tenant != "brewer" || len(info.MVs) != 3 {
		t.Fatalf("info = %+v", info)
	}

	// Duplicate registration conflicts.
	resp = postJSON(t, ts.URL+"/v1/pipelines", pipelineRequest("beer", "brewer"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register: %d", resp.StatusCode)
	}

	// Synchronous refresh.
	resp = postJSON(t, ts.URL+"/v1/pipelines/beer/refresh?wait=1", nil)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("refresh: %d %s", resp.StatusCode, b)
	}
	st := decodeBody[RunStatus](t, resp)
	if st.State != StateSucceeded {
		t.Fatalf("run state = %q (%s)", st.State, st.Error)
	}
	if st.Nodes != 3 {
		t.Fatalf("nodes = %d, want 3", st.Nodes)
	}
	// The run left nothing in the shared pool, and its trace says so.
	if st.LeakedBytes != 0 {
		t.Fatalf("run leaked %d bytes into the shared pool", st.LeakedBytes)
	}
	trace, err := s.RunTrace(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := trace.Spans[0].Attrs["sc.leaked_bytes"]; got != int64(0) {
		t.Fatalf("root span sc.leaked_bytes = %v, want 0", got)
	}

	// Status endpoint agrees.
	resp, err = http.Get(ts.URL + "/v1/runs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeBody[RunStatus](t, resp); got.State != StateSucceeded {
		t.Fatalf("status = %+v", got)
	}

	// Query an MV (limit applies).
	resp, err = http.Get(ts.URL + "/v1/pipelines/beer/mvs/mv_daily?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	tr := decodeBody[tableResponse](t, resp)
	if tr.Rows != 2 || len(tr.Columns) != 2 || tr.Columns[0] != "day" {
		t.Fatalf("mv_daily = %+v", tr)
	}
	resp, err = http.Get(ts.URL + "/v1/pipelines/beer/mvs/mv_count")
	if err != nil {
		t.Fatal(err)
	}
	tr = decodeBody[tableResponse](t, resp)
	if tr.Rows != 1 || tr.Data[0][0].(float64) != 3 {
		t.Fatalf("mv_count = %+v", tr)
	}

	// Unknown MV and pipeline are 404.
	for _, path := range []string{"/v1/pipelines/beer/mvs/nope", "/v1/pipelines/nope/mvs/mv_daily", "/v1/runs/run-999999"} {
		resp, err = http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d, want 404", path, resp.StatusCode)
		}
	}

	// The run's event stream replays as NDJSON.
	resp, err = http.Get(ts.URL + "/v1/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type = %q", ct)
	}
	kinds := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e struct {
			Kind string `json:"kind"`
			Node string `json:"node"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		kinds[e.Kind]++
	}
	if kinds["NodeDone"] != 3 || kinds["Materialized"] != 3 {
		t.Fatalf("event kinds = %v", kinds)
	}

	// /metrics exposes the refresh.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`scserve_refreshes_total{tenant="brewer",pipeline="beer",status="succeeded"} 1`,
		`scserve_catalog_budget_bytes 1.048576e+06`,
		"# TYPE scserve_refresh_seconds histogram",
		`scserve_tenant_slice_bytes{tenant="brewer"}`,
		"scserve_queue_depth 0",
		"# TYPE scserve_mv_read_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	// /healthz reports the admission counters.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody[Stats](t, resp)
	if stats.Pipelines != 1 || stats.Admitted != 1 || stats.ReservedBytes != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.PeakReserved > stats.BudgetBytes {
		t.Fatalf("peak reserved %d over budget", stats.PeakReserved)
	}
}

// TestGatewayCancelQueuedRun triggers the same pipeline twice — the first
// run is held at a gated store write, so the second queues behind it — and
// cancels the queued one, then the running one: both cancels answer with a
// terminal state.
func TestGatewayCancelQueuedRun(t *testing.T) {
	gs := &gateStore{Store: storage.NewMemStore()}
	s, ts := newTestGateway(t, Config{NewStore: func(string) storage.Store { return gs }})
	if err := s.Register(PipelineSpec{
		Name: "p", Tenant: "t",
		MVs:    pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}

	gs.block()
	defer gs.open() // a failing assertion must not leave Close waiting on the held run
	r1, err := s.Trigger("p")
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/pipelines/p/refresh", nil)
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("trigger: %d %s", resp.StatusCode, b)
	}
	queued := decodeBody[RunStatus](t, resp)
	if queued.State != StateQueued {
		t.Fatalf("second trigger state = %q while the first run is held", queued.State)
	}
	got := decodeBody[RunStatus](t, postJSON(t, ts.URL+"/v1/runs/"+queued.ID+"/cancel", nil))
	if got.State != StateCanceled {
		t.Fatalf("cancel of a queued run: state = %q", got.State)
	}
	if want := r1.Status().ReservedBytes; s.Stats().ReservedBytes != want {
		t.Fatalf("reserved = %d after canceling the queued run, want the held run's %d", s.Stats().ReservedBytes, want)
	}

	// Cancel the held run once it is parked at the gate: the cancel cannot
	// answer before the run is terminal, and the run cannot become
	// terminal before the gate opens.
	<-gs.parked
	type cancelReply struct {
		st  RunStatus
		err error
	}
	canceled := make(chan cancelReply, 1)
	go func() {
		var rep cancelReply
		resp, err := http.Post(ts.URL+"/v1/runs/"+r1.ID()+"/cancel", "application/json", nil)
		if err == nil {
			rep.err = json.NewDecoder(resp.Body).Decode(&rep.st)
			resp.Body.Close()
		} else {
			rep.err = err
		}
		canceled <- rep
	}()
	select {
	case rep := <-canceled:
		t.Fatalf("cancel answered %q (%v) while the run was still held", rep.st.State, rep.err)
	case <-time.After(20 * time.Millisecond):
	}
	gs.open()
	rep := <-canceled
	if rep.err != nil {
		t.Fatal(rep.err)
	}
	switch rep.st.State {
	case StateCanceled, StateSucceeded, StateFailed:
	default:
		t.Fatalf("cancel of a running run: state = %q", rep.st.State)
	}
	<-r1.Done()
	if got := s.Stats().ReservedBytes; got != 0 {
		t.Fatalf("reserved = %d after both runs ended", got)
	}
	if leaked := r1.Status().LeakedBytes + got.LeakedBytes; leaked != 0 {
		t.Fatalf("canceled runs leaked %d bytes into the shared pool", leaked)
	}
}

// TestCanceledTriggerLeavesQueue: a trigger canceled behind a blocked head
// gives its queue slot back at once. Under QueueLimit 2 a held run keeps
// the head blocked on its busy pipeline; the trigger behind the head is
// canceled, and the next trigger queues instead of answering ErrQueueFull.
func TestCanceledTriggerLeavesQueue(t *testing.T) {
	gs := &gateStore{Store: storage.NewMemStore()}
	s, _ := newTestGateway(t, Config{QueueLimit: 2, NewStore: func(string) storage.Store { return gs }})
	if err := s.Register(PipelineSpec{
		Name: "p", Tenant: "t",
		MVs:    pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}
	gs.block()
	defer gs.open() // a failing assertion must not leave Close waiting on the held run
	var runs []*Run
	for i := 0; i < 3; i++ {
		r, err := s.Trigger("p")
		if err != nil {
			t.Fatalf("trigger %d: %v", i, err)
		}
		runs = append(runs, r)
	}
	held, head, behind := runs[0], runs[1], runs[2]
	if st := held.Status().State; st != StateRunning {
		t.Fatalf("first trigger is %q, want running", st)
	}
	if st, err := s.CancelRun(behind.ID()); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel behind the head: %+v, %v", st, err)
	}
	next, err := s.Trigger("p")
	if err != nil {
		t.Fatalf("trigger after a cancel freed a queue slot: %v", err)
	}
	sr := s.SchedState()
	if sr.QueueDepth != 2 || s.Stats().QueueDepth != 2 || sr.Queue[0].BlockedOn != "pipeline-busy" {
		t.Fatalf("queue = %+v (healthz depth %d), want head and next, head blocked on pipeline-busy", sr.Queue, s.Stats().QueueDepth)
	}
	gs.open()
	for _, r := range []*Run{held, head, next} {
		<-r.Done()
		if st := r.Status(); st.State != StateSucceeded {
			t.Fatalf("run %s: %q (%s)", r.ID(), st.State, st.Error)
		}
	}
	if st := behind.Status().State; st != StateCanceled {
		t.Fatalf("canceled run ended %q", st)
	}
}

// TestGatewayWaitDisconnectCancels verifies the wait-mode contract: a
// client that goes away cancels its refresh, and the cancellation releases
// every reserved byte.
func TestGatewayWaitDisconnectCancels(t *testing.T) {
	s, ts := newTestGateway(t, Config{})
	if err := s.Register(PipelineSpec{
		Name: "p", Tenant: "t",
		MVs:    pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}
	// A request context canceled mid-wait triggers CancelRun; simulate via
	// a client timeout far shorter than... the refresh is fast, so instead
	// drive the handler contract directly: trigger, then cancel.
	r, err := s.Trigger("p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CancelRun(r.id); err != nil {
		t.Fatal(err)
	}
	<-r.done
	st, err := s.Run(r.id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled && st.State != StateSucceeded {
		t.Fatalf("state = %q", st.State)
	}
	if got := s.Stats().ReservedBytes; got != 0 {
		t.Fatalf("reserved = %d after terminal run", got)
	}
	if got := s.pool.Stats().Used; got != 0 {
		t.Fatalf("used = %d after terminal run", got)
	}
	if st.LeakedBytes != 0 {
		t.Fatalf("canceled run leaked %d bytes into the shared pool", st.LeakedBytes)
	}
	_ = ts
}

// TestGatewayCronFires registers a pipeline with a short interval and
// waits for the scheduler to refresh it without any explicit trigger.
func TestGatewayCronFires(t *testing.T) {
	s, _ := newTestGateway(t, Config{})
	if err := s.Register(PipelineSpec{
		Name: "cron", Tenant: "t",
		Every:  50 * time.Millisecond,
		MVs:    pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		info, err := s.Pipeline("cron")
		if err != nil {
			t.Fatal(err)
		}
		if info.Runs > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("cron never fired")
}

// TestGatewayEncodedPipeline exercises the compressed path end to end:
// an encoded registration, two refreshes (the second replans
// from observed metadata), and MV reads that decode chunked storage.
func TestGatewayEncodedPipeline(t *testing.T) {
	s, _ := newTestGateway(t, Config{})
	if err := s.Register(PipelineSpec{
		Name: "enc", Tenant: "t",
		Encoding: true,
		MVs:      pipelineRequest("", "").MVs,
		Tables:   map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r, err := s.Trigger("enc")
		if err != nil {
			t.Fatal(err)
		}
		<-r.done
		st, _ := s.Run(r.id)
		if st.State != StateSucceeded {
			t.Fatalf("refresh %d: %q (%s)", i, st.State, st.Error)
		}
	}
	got, err := s.QueryMV("enc", "mv_daily", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 {
		t.Fatalf("mv_daily rows = %d", got.NumRows())
	}
	if used := s.pool.Stats().Used; used != 0 {
		t.Fatalf("pool used = %d after refreshes", used)
	}
}

// TestGatewaySeedTPCDS registers the TPC-DS-backed real workload pipeline
// the CI smoke job uses and refreshes it once.
func TestGatewaySeedTPCDS(t *testing.T) {
	if testing.Short() {
		t.Skip("tpc-ds seed in -short")
	}
	s, _ := newTestGateway(t, Config{GlobalBudget: 8 << 20})
	if err := s.Register(TPCDSSpec("dw", "analytics", 0.1)); err != nil {
		t.Fatal(err)
	}
	r, err := s.Trigger("dw")
	if err != nil {
		t.Fatal(err)
	}
	<-r.done
	st, _ := s.Run(r.id)
	if st.State != StateSucceeded {
		t.Fatalf("tpcds refresh: %q (%s)", st.State, st.Error)
	}
	got, err := s.QueryMV("dw", "top_items", 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() == 0 {
		t.Fatal("top_items empty")
	}
}

// TestQueryMVLimitRows reads an MV stored as several row groups (and as a
// v1 file) at limits around the group boundary: the rows are the first
// limit rows of the table whichever way QueryMV decoded them. Over HTTP, an
// absent limit or 0 returns every row and a negative one is a 400.
func TestQueryMVLimitRows(t *testing.T) {
	const rows, chunkRows = 200, 64
	mem := storage.NewMemStore()
	s, ts := newTestGateway(t, Config{NewStore: func(string) storage.Store { return mem }})
	if err := s.Register(PipelineSpec{
		Name: "p", Tenant: "t",
		MVs:    pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}
	full := table.New(table.NewSchema(
		table.Column{Name: "day", Type: table.Int},
		table.Column{Name: "revenue", Type: table.Float},
	))
	for i := 0; i < rows; i++ {
		if err := full.AppendRow(table.IntValue(int64(i)), table.FloatValue(float64(i%7)*1.5)); err != nil {
			t.Fatal(err)
		}
	}
	for _, format := range []string{"chunked", "v1"} {
		var err error
		if format == "chunked" {
			err = exec.SaveTableChunked(mem, "mv_daily", full, encoding.Options{ChunkRows: chunkRows})
		} else {
			err = exec.SaveTable(mem, "mv_daily", full)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{0, 1, chunkRows - 1, chunkRows, chunkRows + 1, rows, rows + 1} {
			got, err := s.QueryMV("p", "mv_daily", limit)
			if err != nil {
				t.Fatal(err)
			}
			want := rows
			if limit > 0 && limit < rows {
				want = limit
			}
			idx := make([]int, want)
			for i := range idx {
				idx[i] = i
			}
			if !reflect.DeepEqual(got, full.Gather(idx)) {
				t.Fatalf("%s, limit %d: got %d rows, want the first %d", format, limit, got.NumRows(), want)
			}
		}
		for query, wantStatus := range map[string]int{"": http.StatusOK, "?limit=0": http.StatusOK, "?limit=-5": http.StatusBadRequest} {
			resp, err := http.Get(ts.URL + "/v1/pipelines/p/mvs/mv_daily" + query)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != wantStatus {
				resp.Body.Close()
				t.Fatalf("%s, GET%s: status %d, want %d", format, query, resp.StatusCode, wantStatus)
			}
			if wantStatus != http.StatusOK {
				resp.Body.Close()
				continue
			}
			if tr := decodeBody[tableResponse](t, resp); tr.Rows != rows {
				t.Fatalf("%s, GET%s: %d rows, want all %d", format, query, tr.Rows, rows)
			}
		}
	}
}

// TestQueryMVUnreadable: a known MV never refreshed answers 404, and one
// whose stored object no longer decodes answers 500 with the decode error,
// not "not materialized yet".
func TestQueryMVUnreadable(t *testing.T) {
	mem := storage.NewMemStore()
	s, ts := newTestGateway(t, Config{NewStore: func(string) storage.Store { return mem }})
	if err := s.Register(PipelineSpec{
		Name: "p", Tenant: "t",
		MVs:    pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}
	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/pipelines/p/mvs/mv_daily")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get(); code != http.StatusNotFound || !strings.Contains(body, "not materialized yet") {
		t.Fatalf("never refreshed: %d %s, want 404 not materialized yet", code, body)
	}
	if err := exec.SaveTableChunked(mem, "mv_daily", mustTable(t, salesJSON()), encoding.Options{}); err != nil {
		t.Fatal(err)
	}
	data, err := mem.Read("mv_daily.sct")
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Clone(data)
	data[len(data)-5] ^= 0xff // the last payload byte, just before its chunk's checksum
	if err := mem.Write("mv_daily.sct", data); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryMV("p", "mv_daily", 0); !errors.Is(err, ErrUnreadable) || errors.Is(err, ErrNotFound) {
		t.Fatalf("QueryMV on a corrupt object: %v, want ErrUnreadable", err)
	}
	if code, body := get(); code != http.StatusInternalServerError || !strings.Contains(body, "corrupt") {
		t.Fatalf("corrupt object: %d %s, want 500 naming the corruption", code, body)
	}
}

func mustTable(t *testing.T, tj tableJSON) *table.Table {
	t.Helper()
	tab, err := tj.toTable()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestTableJSONRoundTrip covers the inline-table codec's error paths.
func TestTableJSONRoundTrip(t *testing.T) {
	tab := mustTable(t, salesJSON())
	if tab.NumRows() != 5 || tab.Schema.NumCols() != 3 {
		t.Fatalf("table = %d rows %d cols", tab.NumRows(), tab.Schema.NumCols())
	}
	bad := []tableJSON{
		{Schema: []columnJSON{{Name: "x", Type: "blob"}}},
		{Schema: []columnJSON{{Name: "x", Type: "int"}}, Rows: [][]any{{"nope"}}},
		{Schema: []columnJSON{{Name: "x", Type: "int"}}, Rows: [][]any{{json.Number("1"), json.Number("2")}}},
		{Schema: []columnJSON{{Name: "x", Type: "str"}}, Rows: [][]any{{json.Number("1")}}},
		{Schema: []columnJSON{{Name: "x", Type: "float"}}, Rows: [][]any{{"1.5"}}},
	}
	for i, tj := range bad {
		if _, err := tj.toTable(); err == nil {
			t.Fatalf("bad table %d accepted", i)
		}
	}
}

// TestRegisterIntColumnsExactly: POST /v1/pipelines stores an inline int
// column's value only when it is an integer a JSON number carries exactly —
// integral and no larger in magnitude than 2^53 — and otherwise answers 400
// naming the row and column, instead of truncating.
func TestRegisterIntColumnsExactly(t *testing.T) {
	s, ts := newTestGateway(t, Config{})
	register := func(name, value string) *http.Response {
		t.Helper()
		body := `{"name":"` + name + `","mvs":[{"name":"mv","sql":"SELECT id FROM base"}],` +
			`"tables":{"base":{"schema":[{"name":"tag","type":"str"},{"name":"id","type":"int"}],` +
			`"rows":[["a",1],["b",` + value + `]]}}}`
		resp, err := http.Post(ts.URL+"/v1/pipelines", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for v, want := range map[string]int64{"3": 3, "-2": -2, "9007199254740992": 1 << 53, "-9007199254740992": -1 << 53, "4.0": 4, "1e3": 1000} {
		name := "ok" + v
		resp := register(name, v)
		if resp.StatusCode != http.StatusCreated {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("int %s: %d %s", v, resp.StatusCode, b)
		}
		resp.Body.Close()
		p, err := s.pipeline(name)
		if err != nil {
			t.Fatal(err)
		}
		base, err := exec.LoadTable(p.Store, "base")
		if err != nil {
			t.Fatal(err)
		}
		if got := base.Row(1)[1].I; got != want {
			t.Fatalf("int %s stored as %d", v, got)
		}
	}
	for _, v := range []string{"1.5", "1e20", "9007199254740993", "-9007199254740993", `"7"`} {
		resp := register("bad", v)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `row 1 col \"id\"`) {
			t.Fatalf("int %s: %d %s, want 400 naming row 1 col \"id\"", v, resp.StatusCode, body)
		}
	}
	if _, err := s.Pipeline("bad"); err == nil {
		t.Fatal("a rejected registration was kept")
	}
}

// TestPromExposition unit-checks the hand-rolled text format.
func TestPromExposition(t *testing.T) {
	p := newProm()
	p.refreshes.add(1, "t1", `p"quote`, "succeeded")
	p.refreshes.add(2, "t1", `p"quote`, "succeeded")
	p.queueWait.observe(0.004)
	p.queueWait.observe(2)
	p.addGauge("scserve_queue_depth", "Queued.", nil, func(*snapshot) []gaugeSample {
		return []gaugeSample{{v: 7}}
	})
	var b bytes.Buffer
	p.write(&b, false, nil)
	text := b.String()
	for _, want := range []string{
		`scserve_refreshes_total{tenant="t1",pipeline="p\"quote",status="succeeded"} 3`,
		"# TYPE scserve_refreshes_total counter",
		`scserve_queue_wait_seconds_bucket{le="0.005"} 1`,
		`scserve_queue_wait_seconds_bucket{le="+Inf"} 2`,
		"scserve_queue_wait_seconds_count 2",
		"scserve_queue_depth 7",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "\x1f") {
		t.Fatal("label-key separator leaked into exposition")
	}
}

// TestServerRejectsBadConfigAndSpecs covers validation paths.
func TestServerRejectsBadConfigAndSpecs(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Fatal("zero budget accepted")
	}
	s, _ := newTestGateway(t, Config{})
	if err := s.Register(PipelineSpec{Name: "", MVs: []MVSpec{{Name: "a", SQL: "SELECT x FROM t"}}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := s.Register(PipelineSpec{Name: "p"}); err == nil {
		t.Fatal("no MVs accepted")
	}
	if err := s.Register(PipelineSpec{Name: "p", MVs: []MVSpec{
		{Name: "a", SQL: "SELECT x FROM b"},
		{Name: "b", SQL: "SELECT x FROM a"},
	}}); err == nil {
		t.Fatal("cyclic workload accepted")
	}
	if err := s.Unregister("ghost"); err == nil {
		t.Fatal("unregister of unknown pipeline accepted")
	}
	if _, err := s.Trigger("ghost"); err == nil {
		t.Fatal("trigger of unknown pipeline accepted")
	}
	if _, err := s.CancelRun("run-000000"); err == nil {
		t.Fatal("cancel of unknown run accepted")
	}
}

// TestRegisterWorkloadShortcut registers via the HTTP "workload" shortcut
// instead of spelling out the MV list.
func TestRegisterWorkloadShortcut(t *testing.T) {
	s, ts := newTestGateway(t, Config{})

	resp := postJSON(t, ts.URL+"/v1/pipelines", map[string]any{"name": "w", "workload": "tpcds-real"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("workload register: code %d", resp.StatusCode)
	}
	info, err := s.Pipeline("w")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(TPCDSSpec("", "", 0).MVs); len(info.MVs) != want {
		t.Fatalf("workload shortcut built %d MVs, want %d", len(info.MVs), want)
	}

	resp = postJSON(t, ts.URL+"/v1/pipelines", map[string]any{"name": "x", "workload": "nope"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown workload: code %d", resp.StatusCode)
	}
}
