package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func sampleTrace() []Span {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	trace := NewTraceID()
	root := Span{
		TraceID: trace, SpanID: NewSpanID(), Name: "refresh", Kind: KindServer,
		Start: base, End: base.Add(time.Second),
		Attrs: []Attr{Str("sc.run_id", "run-000001")},
	}
	child := Span{
		TraceID: trace, SpanID: NewSpanID(), Parent: root.SpanID,
		Name: "node a", Kind: KindInternal,
		Start: base.Add(100 * time.Millisecond), End: base.Add(900 * time.Millisecond),
		Attrs: []Attr{Str(AttrNode, "a"), Int("sc.output_bytes", 4096), Float("sc.ratio", 2.5), Bool("sc.flagged", true)},
		Events: []SpanEvent{{
			Name: "EncodeDone", Time: base.Add(850 * time.Millisecond),
			Attrs: []Attr{Int("sc.encoded_bytes", 1638)},
		}},
		Err: "",
	}
	return []Span{root, child}
}

func TestMarshalOTLPShape(t *testing.T) {
	spans := sampleTrace()
	spans[1].Err = "boom"
	payload := MarshalOTLP("sc-test", [][]Span{spans})
	var doc map[string]any
	if err := json.Unmarshal(payload, &doc); err != nil {
		t.Fatalf("payload not JSON: %v", err)
	}
	rs := doc["resourceSpans"].([]any)[0].(map[string]any)
	resAttrs := rs["resource"].(map[string]any)["attributes"].([]any)
	svc := resAttrs[0].(map[string]any)
	if svc["key"] != "service.name" || svc["value"].(map[string]any)["stringValue"] != "sc-test" {
		t.Fatalf("resource attrs: %+v", resAttrs)
	}
	ss := rs["scopeSpans"].([]any)[0].(map[string]any)
	otlpSpans := ss["spans"].([]any)
	if len(otlpSpans) != 2 {
		t.Fatalf("%d spans", len(otlpSpans))
	}
	rootJSON := otlpSpans[0].(map[string]any)
	childJSON := otlpSpans[1].(map[string]any)
	if len(rootJSON["traceId"].(string)) != 32 || len(rootJSON["spanId"].(string)) != 16 {
		t.Fatalf("ID hex lengths: %+v", rootJSON)
	}
	if _, has := rootJSON["parentSpanId"]; has {
		t.Fatal("root must omit parentSpanId")
	}
	if childJSON["parentSpanId"] != rootJSON["spanId"] {
		t.Fatal("child parentSpanId mismatch")
	}
	if rootJSON["kind"].(float64) != 2 || childJSON["kind"].(float64) != 1 {
		t.Fatalf("kinds: root %v child %v", rootJSON["kind"], childJSON["kind"])
	}
	// Timestamps are unix-nano decimal strings per proto3 JSON mapping.
	startStr := rootJSON["startTimeUnixNano"].(string)
	if startStr != "1767225600000000000" {
		t.Fatalf("startTimeUnixNano = %q", startStr)
	}
	// Typed attribute encoding: int64 as string, double and bool native.
	attrs := childJSON["attributes"].([]any)
	byKey := map[string]map[string]any{}
	for _, a := range attrs {
		kv := a.(map[string]any)
		byKey[kv["key"].(string)] = kv["value"].(map[string]any)
	}
	if byKey["sc.output_bytes"]["intValue"] != "4096" {
		t.Fatalf("intValue: %+v", byKey["sc.output_bytes"])
	}
	if byKey["sc.ratio"]["doubleValue"].(float64) != 2.5 {
		t.Fatalf("doubleValue: %+v", byKey["sc.ratio"])
	}
	if byKey["sc.flagged"]["boolValue"].(bool) != true {
		t.Fatalf("boolValue: %+v", byKey["sc.flagged"])
	}
	// Span events and error status.
	evs := childJSON["events"].([]any)
	if len(evs) != 1 || evs[0].(map[string]any)["name"] != "EncodeDone" {
		t.Fatalf("events: %+v", evs)
	}
	status := childJSON["status"].(map[string]any)
	if status["code"].(float64) != 2 || status["message"] != "boom" {
		t.Fatalf("status: %+v", status)
	}
	if rootJSON["status"].(map[string]any)["code"].(float64) != 1 {
		t.Fatalf("root status: %+v", rootJSON["status"])
	}
}

func TestOTLPExporterDelivers(t *testing.T) {
	var mu sync.Mutex
	var bodies [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q", ct)
		}
		if r.Header.Get("X-Auth") != "secret" {
			t.Errorf("custom header missing")
		}
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		mu.Lock()
		bodies = append(bodies, buf.Bytes())
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	e, err := NewOTLP(OTLPConfig{
		Endpoint: srv.URL,
		Headers:  map[string]string{"X-Auth": "secret"},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Export(sampleTrace())
	e.Export(sampleTrace())
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Sent() != 2 || e.Dropped() != 0 {
		t.Fatalf("sent %d dropped %d", e.Sent(), e.Dropped())
	}
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, b := range bodies {
		var doc otlpExportRequest
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("body not an export request: %v", err)
		}
		total += len(doc.ResourceSpans[0].ScopeSpans[0].Spans)
	}
	if total != 4 {
		t.Fatalf("%d spans delivered, want 4", total)
	}
}

func TestOTLPExporterRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	e, err := newOTLP(OTLPConfig{Endpoint: srv.URL}, otlpQueueSize, otlpBatchSize, 3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	e.Export(sampleTrace())
	e.Close()
	if calls.Load() != 3 {
		t.Fatalf("%d attempts, want 3 (two 503s then success)", calls.Load())
	}
	if e.Sent() != 1 || e.Dropped() != 0 {
		t.Fatalf("sent %d dropped %d", e.Sent(), e.Dropped())
	}
}

func TestOTLPExporterDropsAfterRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	e, err := newOTLP(OTLPConfig{Endpoint: srv.URL}, otlpQueueSize, otlpBatchSize, 2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	e.Export(sampleTrace())
	e.Close()
	if calls.Load() != 3 {
		t.Fatalf("%d attempts, want 1 + 2 retries", calls.Load())
	}
	if e.Dropped() != 1 || e.Sent() != 0 {
		t.Fatalf("sent %d dropped %d", e.Sent(), e.Dropped())
	}
}

func TestOTLPExporterNonRetriableDropsImmediately(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer srv.Close()
	e, err := newOTLP(OTLPConfig{Endpoint: srv.URL}, otlpQueueSize, otlpBatchSize, otlpRetries, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	e.Export(sampleTrace())
	e.Close()
	if calls.Load() != 1 {
		t.Fatalf("%d attempts, want 1 (400 is not retriable)", calls.Load())
	}
	if e.Dropped() != 1 {
		t.Fatalf("dropped %d", e.Dropped())
	}
}

func TestOTLPExporterQueueFullDrops(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	e, err := newOTLP(OTLPConfig{Endpoint: srv.URL}, 2, 1, otlpRetries, otlpRetryBase)
	if err != nil {
		t.Fatal(err)
	}
	// One trace occupies the worker (blocked on the server); two fill the
	// queue; the rest must drop without blocking.
	for i := 0; i < 8; i++ {
		e.Export(sampleTrace())
	}
	deadline := time.After(2 * time.Second)
	for e.Dropped() < 5 {
		select {
		case <-deadline:
			t.Fatalf("dropped %d, want >= 5", e.Dropped())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	e.Close()
	if e.Sent()+e.Dropped() != 8 {
		t.Fatalf("sent %d + dropped %d != 8", e.Sent(), e.Dropped())
	}
}

// TestOTLPExportRacesClose: Export checked a flag and then sent, so a Close
// in between closed the queue under it. Now every trace offered around a
// Close is either sent or a counted drop, and -race sees no unordered pair.
func TestOTLPExportRacesClose(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	e, err := NewOTLP(OTLPConfig{Endpoint: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	const senders, each = 4, 100
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				e.Export(sampleTrace())
			}
		}()
	}
	e.Close()
	wg.Wait()
	e.Close()
	if e.Sent()+e.Dropped() != senders*each {
		t.Fatalf("sent %d + dropped %d != %d exported", e.Sent(), e.Dropped(), senders*each)
	}
}

func TestNewOTLPRequiresEndpoint(t *testing.T) {
	if _, err := NewOTLP(OTLPConfig{}); err == nil {
		t.Fatal("empty endpoint accepted")
	}
}

func TestFileExporterNDJSON(t *testing.T) {
	var buf bytes.Buffer
	e := NewWriterExporter(&buf, "sc-test")
	e.Export(sampleTrace())
	e.Export(sampleTrace())
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	for _, line := range lines {
		var doc otlpExportRequest
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("line not an OTLP payload: %v", err)
		}
		spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
		if len(spans) != 2 || spans[0].Name != "refresh" {
			t.Fatalf("spans: %+v", spans)
		}
	}
}

func TestFileExporterFile(t *testing.T) {
	path := t.TempDir() + "/trace.ndjson"
	e, err := NewFileExporter(path, "")
	if err != nil {
		t.Fatal(err)
	}
	e.Export(sampleTrace())
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Append mode: a second exporter adds a second line.
	e2, err := NewFileExporter(path, "")
	if err != nil {
		t.Fatal(err)
	}
	e2.Export(sampleTrace())
	e2.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Fatalf("%d lines in trace file", n)
	}
	if !strings.Contains(string(data), `"service.name"`) {
		t.Fatal("resource attrs missing from file payload")
	}
}
