package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/telemetry"
)

// TestGatewayTraceEndToEnd drives a traced refresh over HTTP: the trigger
// carries a client traceparent, the run's spans join that trace, and
// GET /v1/runs/{id}/trace serves the assembled spans with critical-path
// analysis.
func TestGatewayTraceEndToEnd(t *testing.T) {
	var exported bytes.Buffer
	exp := telemetry.NewWriterExporter(&exported, "sc-test")
	_, ts := newTestGateway(t, Config{TraceExporter: exp})

	resp := postJSON(t, ts.URL+"/v1/pipelines", pipelineRequest("beer", "brewer"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}

	client := telemetry.SpanContext{TraceID: telemetry.NewTraceID(), SpanID: telemetry.NewSpanID(), Sampled: true}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/pipelines/beer/refresh?wait=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", client.Traceparent())
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The response echoes the run's own traceparent, inside the client's
	// trace.
	tp, ok := telemetry.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q", resp.Header.Get("traceparent"))
	}
	if tp.TraceID != client.TraceID {
		t.Fatalf("run trace %s did not join client trace %s", tp.TraceID, client.TraceID)
	}
	st := decodeBody[RunStatus](t, resp)
	if st.State != StateSucceeded {
		t.Fatalf("run state = %q (%s)", st.State, st.Error)
	}

	resp, err = http.Get(ts.URL + "/v1/runs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	rep := decodeBody[TraceReport](t, resp)
	if rep.RunID != st.ID || !rep.Complete || rep.State != StateSucceeded {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.TraceID != client.TraceID.String() {
		t.Fatalf("trace ID %s, want client's %s", rep.TraceID, client.TraceID)
	}

	// One root span, one admission span, one span per executed node.
	root := rep.Spans[0]
	if root.ParentSpanID != client.SpanID.String() {
		t.Fatalf("root parent %q, want client span %s", root.ParentSpanID, client.SpanID)
	}
	if root.Attrs["sc.run_id"] != st.ID || root.Attrs["sc.pipeline"] != "beer" || root.Attrs["sc.state"] != StateSucceeded {
		t.Fatalf("root attrs: %v", root.Attrs)
	}
	// Profiling deltas are stamped on the root.
	for _, key := range []string{"runtime.heap_alloc_bytes", "runtime.goroutine_peak", "runtime.gc_pause_seconds"} {
		if _, ok := root.Attrs[key]; !ok {
			t.Fatalf("root missing profile attr %q: %v", key, root.Attrs)
		}
	}
	nodes := map[string]telemetry.SpanJSON{}
	admission := false
	for _, sp := range rep.Spans[1:] {
		if sp.ParentSpanID != root.SpanID {
			t.Fatalf("span %q parent %q, want root %q", sp.Name, sp.ParentSpanID, root.SpanID)
		}
		if n, ok := sp.Attrs["sc.node"].(string); ok {
			nodes[n] = sp
		} else if sp.Name == "queue admission" {
			admission = true
		}
	}
	if !admission {
		t.Fatal("queue admission span missing")
	}
	for _, mv := range []string{"mv_daily", "mv_top", "mv_count"} {
		if _, ok := nodes[mv]; !ok {
			t.Fatalf("no span for node %q (have %v)", mv, nodes)
		}
	}

	// Critical path: mv_daily feeds both others, so every chain starts
	// there; accounting telescopes to the last node's end offset.
	cp := rep.CriticalPath
	if len(cp.Chain) < 2 || cp.Chain[0] != "mv_daily" {
		t.Fatalf("chain %v", cp.Chain)
	}
	if cp.WallSeconds <= 0 || cp.ChainSeconds <= 0 || cp.Coverage <= 0 || cp.Coverage > 1.0001 {
		t.Fatalf("accounting: wall %v chain %v coverage %v", cp.WallSeconds, cp.ChainSeconds, cp.Coverage)
	}
	if len(cp.Nodes) != 3 {
		t.Fatalf("%d crit nodes", len(cp.Nodes))
	}

	// The exporter received the finished trace as one OTLP JSON line.
	line := strings.TrimSpace(exported.String())
	if strings.Contains(line, "\n") {
		t.Fatalf("expected one exported trace, got: %q", line)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("exported line not OTLP JSON: %v", err)
	}
	if !strings.Contains(line, `"`+st.ID+`"`) {
		t.Fatal("exported payload missing run ID attr")
	}
}

// TestGatewayTraceTerminalWithoutRun checks a trigger that never executes
// (canceled while queued) still finishes its trace: root span closed with
// the terminal state, no node spans, trace exported.
func TestGatewayTraceTerminalWithoutRun(t *testing.T) {
	var exported bytes.Buffer
	s, _ := newTestGateway(t, Config{TraceExporter: telemetry.NewWriterExporter(&exported, "")})
	if err := s.Register(PipelineSpec{
		Name: "p", Tenant: "t",
		MVs:    pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}
	r, err := s.Trigger("p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CancelRun(r.id); err != nil {
		t.Fatal(err)
	}
	<-r.done
	rep, err := s.RunTrace(r.id)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Fatalf("trace not finished after terminal state: %+v", rep)
	}
	st, _ := s.Run(r.id)
	if rep.State != st.State {
		t.Fatalf("trace state %q, run state %q", rep.State, st.State)
	}
	if rep.Spans[0].Attrs["sc.state"] != st.State {
		t.Fatalf("root sc.state attr: %v", rep.Spans[0].Attrs)
	}
	if exported.Len() == 0 {
		t.Fatal("terminal run's trace was not exported")
	}
}
