package sc

import (
	"github.com/shortcircuit-db/sc/internal/telemetry"
)

// Span is one completed span of a traced refresh run: the root span covers
// the whole run, one child span covers each executed node, and encode/
// decode/kernel completions attach as span events.
type Span = telemetry.Span

// CritReport is the critical-path analysis of one run's spans: the longest
// blocking chain through the DAG and each node's self vs wait time.
type CritReport = telemetry.CritReport

// TraceExporter receives each completed run trace. Export must not block:
// the built-in exporters buffer or write synchronously to local files.
type TraceExporter = telemetry.Exporter

// NewOTLPTraceExporter returns an exporter that posts traces to an
// OTLP/HTTP JSON collector endpoint (e.g. http://localhost:4318/v1/traces)
// with batching, a bounded queue and exponential-backoff retries. Close it
// when the session ends to flush the queue.
func NewOTLPTraceExporter(endpoint string) (TraceExporter, error) {
	return telemetry.NewOTLP(telemetry.OTLPConfig{Endpoint: endpoint, Service: "sc"})
}

// NewFileTraceExporter returns an exporter appending each run's trace to
// path as one OTLP/HTTP JSON payload per line; "-" writes to stdout.
func NewFileTraceExporter(path string) (TraceExporter, error) {
	return telemetry.NewFileExporter(path, "sc")
}

// RunTrace is the assembled trace of one completed Refresher run.
type RunTrace struct {
	// RunID identifies the run; node observations recorded in Metrics
	// carry the same ID.
	RunID string
	// Spans lists the run's spans, root first.
	Spans []Span
	// CriticalPath reports the longest blocking chain through the DAG.
	CriticalPath CritReport
}

// LastTrace returns the trace of the most recently completed run, or nil
// before the first run or when the session was built without
// WithTelemetry.
func (r *Refresher) LastTrace() *RunTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastTrace
}
