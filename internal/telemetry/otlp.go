package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shortcircuit-db/sc/internal/telemetry/delivery"
)

// Exporter receives completed traces. Export must not block the caller
// beyond a bounded enqueue — it is called from the refresh finish path.
type Exporter interface {
	// Export submits one run's spans (root first). Implementations may
	// drop under backpressure; they must not retain the slice.
	Export(spans []Span)
	// Close flushes buffered traces and releases resources.
	Close() error
}

// OTLPConfig configures an OTLP/HTTP JSON exporter.
type OTLPConfig struct {
	// Endpoint is the collector URL, e.g. http://localhost:4318/v1/traces.
	Endpoint string
	// Service is the resource service.name; default "sc".
	Service string
	// Headers are added to every export request (auth tokens etc.).
	Headers map[string]string
}

// How the exporter batches and retries. Nothing ever set these, so they
// are constants.
const (
	otlpQueueSize     = 256                    // pending traces; beyond it new traces are dropped and counted
	otlpBatchSize     = 16                     // max traces per HTTP request
	otlpFlushInterval = 2 * time.Second        // how long a partial batch waits
	otlpRetries       = 3                      // re-attempts per batch after a retriable failure
	otlpRetryBase     = 100 * time.Millisecond // first backoff delay, doubled per attempt
	otlpTimeout       = 10 * time.Second       // per HTTP attempt
)

// OTLPExporter ships traces to an OTLP/HTTP JSON collector endpoint. Like
// the gateway's Prometheus exposition, the wire format is hand-rolled —
// no SDK dependency. Traces enqueue onto a bounded queue (full or closed
// queue = drop + count) and a single worker batches, sends, and retries
// with exponential backoff; retriable failures (429/5xx/network)
// re-attempt up to otlpRetries times before the batch is dropped.
type OTLPExporter struct {
	cfg       OTLPConfig
	client    *http.Client
	batchSize int
	retries   int
	retryBase time.Duration
	queue     *delivery.Queue[[]Span]
	dropped   atomic.Int64
	sent      atomic.Int64
	wg        sync.WaitGroup
}

// NewOTLP builds an exporter and starts its worker.
func NewOTLP(cfg OTLPConfig) (*OTLPExporter, error) {
	return newOTLP(cfg, otlpQueueSize, otlpBatchSize, otlpRetries, otlpRetryBase)
}

// newOTLP is NewOTLP with the queue, batch and retry constants as
// parameters.
func newOTLP(cfg OTLPConfig, queueSize, batchSize, retries int, retryBase time.Duration) (*OTLPExporter, error) {
	if cfg.Endpoint == "" {
		return nil, fmt.Errorf("telemetry: OTLP endpoint required")
	}
	e := &OTLPExporter{
		cfg:       cfg,
		client:    &http.Client{Timeout: otlpTimeout},
		batchSize: batchSize,
		retries:   retries,
		retryBase: retryBase,
		queue:     delivery.NewQueue[[]Span](queueSize),
	}
	e.wg.Add(1)
	go e.run()
	return e, nil
}

// Export implements Exporter: non-blocking enqueue; a full queue, or one
// already closed, drops the trace and counts it.
func (e *OTLPExporter) Export(spans []Span) {
	if len(spans) == 0 {
		return
	}
	cp := make([]Span, len(spans))
	copy(cp, spans)
	if !e.queue.Offer(cp) {
		e.dropped.Add(1)
	}
}

// Dropped reports traces discarded because the queue was full or closed,
// or a batch exhausted its retries.
func (e *OTLPExporter) Dropped() int64 { return e.dropped.Load() }

// Sent reports traces delivered (2xx response).
func (e *OTLPExporter) Sent() int64 { return e.sent.Load() }

// Close stops accepting traces, flushes the queue, and waits for the
// worker to drain.
func (e *OTLPExporter) Close() error {
	e.queue.Close()
	e.wg.Wait()
	return nil
}

func (e *OTLPExporter) run() {
	defer e.wg.Done()
	timer := time.NewTimer(otlpFlushInterval)
	defer timer.Stop()
	var batch [][]Span
	flush := func() {
		if len(batch) == 0 {
			return
		}
		e.send(batch)
		batch = nil
	}
	for {
		select {
		case spans, ok := <-e.queue.Items():
			if !ok {
				flush()
				return
			}
			batch = append(batch, spans)
			if len(batch) >= e.batchSize {
				flush()
				timer.Reset(otlpFlushInterval) // go ≥ 1.23: Reset leaves no stale tick behind
			}
		case <-timer.C:
			flush()
			timer.Reset(otlpFlushInterval)
		}
	}
}

// send posts one batch; a batch that stays undelivered is dropped.
func (e *OTLPExporter) send(batch [][]Span) {
	payload := MarshalOTLP(e.cfg.Service, batch)
	if ok, _ := delivery.Post(e.client, e.cfg.Endpoint, e.cfg.Headers, payload, e.retries, e.retryBase); ok {
		e.sent.Add(int64(len(batch)))
	} else {
		e.dropped.Add(int64(len(batch)))
	}
}

// --- OTLP/HTTP JSON wire shapes -------------------------------------------
//
// The subset of opentelemetry-proto's ExportTraceServiceRequest JSON
// mapping that trace backends require: resourceSpans → scopeSpans → spans,
// hex-encoded IDs, unix-nano timestamps as decimal strings, and the typed
// AnyValue attribute encoding.

type otlpExportRequest struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpKeyValue `json:"attributes"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
}

type otlpSpan struct {
	TraceID           string         `json:"traceId"`
	SpanID            string         `json:"spanId"`
	ParentSpanID      string         `json:"parentSpanId,omitempty"`
	Name              string         `json:"name"`
	Kind              int            `json:"kind"`
	StartTimeUnixNano string         `json:"startTimeUnixNano"`
	EndTimeUnixNano   string         `json:"endTimeUnixNano"`
	Attributes        []otlpKeyValue `json:"attributes,omitempty"`
	Events            []otlpEvent    `json:"events,omitempty"`
	Links             []otlpLink     `json:"links,omitempty"`
	Status            *otlpStatus    `json:"status,omitempty"`
}

type otlpLink struct {
	TraceID    string         `json:"traceId"`
	SpanID     string         `json:"spanId"`
	Attributes []otlpKeyValue `json:"attributes,omitempty"`
}

type otlpEvent struct {
	TimeUnixNano string         `json:"timeUnixNano"`
	Name         string         `json:"name"`
	Attributes   []otlpKeyValue `json:"attributes,omitempty"`
}

type otlpStatus struct {
	Code    int    `json:"code"`
	Message string `json:"message,omitempty"`
}

type otlpKeyValue struct {
	Key   string       `json:"key"`
	Value otlpAnyValue `json:"value"`
}

type otlpAnyValue struct {
	StringValue *string  `json:"stringValue,omitempty"`
	IntValue    *string  `json:"intValue,omitempty"` // int64 as decimal string, per proto3 JSON
	DoubleValue *float64 `json:"doubleValue,omitempty"`
	BoolValue   *bool    `json:"boolValue,omitempty"`
}

func otlpAttr(a Attr) otlpKeyValue {
	kv := otlpKeyValue{Key: a.Key}
	switch a.Type {
	case AttrInt:
		s := strconv.FormatInt(a.Int, 10)
		kv.Value.IntValue = &s
	case AttrFloat:
		f := a.Flt
		kv.Value.DoubleValue = &f
	case AttrBool:
		b := a.Bool
		kv.Value.BoolValue = &b
	default:
		s := a.Str
		kv.Value.StringValue = &s
	}
	return kv
}

func otlpAttrs(attrs []Attr) []otlpKeyValue {
	if len(attrs) == 0 {
		return nil
	}
	out := make([]otlpKeyValue, len(attrs))
	for i, a := range attrs {
		out[i] = otlpAttr(a)
	}
	return out
}

func unixNano(t time.Time) string {
	if t.IsZero() {
		return "0"
	}
	return strconv.FormatInt(t.UnixNano(), 10)
}

func otlpFromSpan(s Span) otlpSpan {
	o := otlpSpan{
		TraceID:           s.TraceID.String(),
		SpanID:            s.SpanID.String(),
		Name:              s.Name,
		Kind:              int(s.Kind),
		StartTimeUnixNano: unixNano(s.Start),
		EndTimeUnixNano:   unixNano(s.End),
		Attributes:        otlpAttrs(s.Attrs),
	}
	if s.Parent.IsValid() {
		o.ParentSpanID = s.Parent.String()
	}
	for _, ev := range s.Events {
		o.Events = append(o.Events, otlpEvent{
			TimeUnixNano: unixNano(ev.Time),
			Name:         ev.Name,
			Attributes:   otlpAttrs(ev.Attrs),
		})
	}
	for _, l := range s.Links {
		o.Links = append(o.Links, otlpLink{
			TraceID:    l.TraceID.String(),
			SpanID:     l.SpanID.String(),
			Attributes: otlpAttrs(l.Attrs),
		})
	}
	if s.Err != "" {
		o.Status = &otlpStatus{Code: 2, Message: s.Err} // STATUS_CODE_ERROR
	} else if !s.End.IsZero() {
		o.Status = &otlpStatus{Code: 1} // STATUS_CODE_OK
	}
	return o
}

// MarshalOTLP renders traces (each a root-first span slice) as one
// ExportTraceServiceRequest JSON payload; an empty service name means "sc".
func MarshalOTLP(service string, traces [][]Span) []byte {
	var spans []otlpSpan
	for _, tr := range traces {
		for _, s := range tr {
			spans = append(spans, otlpFromSpan(s))
		}
	}
	if service == "" {
		service = "sc"
	}
	req := otlpExportRequest{
		ResourceSpans: []otlpResourceSpans{{
			Resource: otlpResource{Attributes: []otlpKeyValue{
				{Key: "service.name", Value: otlpAnyValue{StringValue: &service}},
			}},
			ScopeSpans: []otlpScopeSpans{{
				Scope: otlpScope{Name: "github.com/shortcircuit-db/sc/internal/telemetry"},
				Spans: spans,
			}},
		}},
	}
	data, err := json.Marshal(req)
	if err != nil {
		// The wire shapes are all plain data; Marshal cannot fail.
		panic(fmt.Sprintf("telemetry: marshal OTLP: %v", err))
	}
	return data
}
