// Package telemetry is S/C's tracing and profiling subsystem, layered on
// the obs event stream. A Collector assembles one refresh run's events into
// a trace: a root span for the run, one child span per executed node
// (NodeStart/NodeDone), with encode/decode/kernel/eviction observations
// attached as span events — and keeps the events themselves as a log its
// readers follow. Traces export over OTLP/HTTP JSON (hand-rolled,
// no SDK dependency) or to a file/stdout for tests, and a pure
// critical-path analysis over a completed trace reports where the run's
// wall time actually went — per-node self time vs wait time, and the
// longest blocking chain through the DAG. The attribute keys, span-event
// names and span name that readers of a trace depend on are constants
// (collector.go) shared by the Collector and those readers. The bounded
// queue and retrying POST under the OTLP exporter are package delivery's,
// shared with the alert webhook.
package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"time"
)

// TraceID is a W3C/OTLP 16-byte trace identifier.
type TraceID [16]byte

// SpanID is a W3C/OTLP 8-byte span identifier.
type SpanID [8]byte

// IsValid reports whether the ID is non-zero.
func (t TraceID) IsValid() bool { return t != TraceID{} }

// IsValid reports whether the ID is non-zero.
func (s SpanID) IsValid() bool { return s != SpanID{} }

// String returns the lowercase hex form (32 chars).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String returns the lowercase hex form (16 chars).
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// NewTraceID returns a random non-zero trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for !t.IsValid() {
		_, _ = rand.Read(t[:])
	}
	return t
}

// NewSpanID returns a random non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	for !s.IsValid() {
		_, _ = rand.Read(s[:])
	}
	return s
}

// SpanContext identifies a position in a distributed trace: the trace and
// the span a child should parent under.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// IsValid reports whether both IDs are non-zero.
func (sc SpanContext) IsValid() bool { return sc.TraceID.IsValid() && sc.SpanID.IsValid() }

// Traceparent renders the context as a W3C traceparent header value.
func (sc SpanContext) Traceparent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return fmt.Sprintf("00-%s-%s-%s", sc.TraceID, sc.SpanID, flags)
}

// ParseTraceparent parses a W3C traceparent header value
// (version-traceid-spanid-flags). It accepts any known-length version
// except the reserved ff, and rejects all-zero IDs, per the spec.
func ParseTraceparent(h string) (SpanContext, bool) {
	h = strings.TrimSpace(h)
	parts := strings.Split(h, "-")
	if len(parts) < 4 {
		return SpanContext{}, false
	}
	ver, traceHex, spanHex, flagsHex := parts[0], parts[1], parts[2], parts[3]
	if len(ver) != 2 || len(traceHex) != 32 || len(spanHex) != 16 || len(flagsHex) != 2 {
		return SpanContext{}, false
	}
	if strings.EqualFold(ver, "ff") {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(make([]byte, 1), []byte(ver)); err != nil {
		return SpanContext{}, false
	}
	var sc SpanContext
	if _, err := hex.Decode(sc.TraceID[:], []byte(strings.ToLower(traceHex))); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(strings.ToLower(spanHex))); err != nil {
		return SpanContext{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(strings.ToLower(flagsHex))); err != nil {
		return SpanContext{}, false
	}
	sc.Sampled = flags[0]&0x01 != 0
	if !sc.IsValid() {
		return SpanContext{}, false
	}
	return sc, true
}

// Kind classifies a span per OTLP numbering.
type Kind int8

// Span kinds (OTLP SpanKind values).
const (
	KindInternal Kind = 1
	KindServer   Kind = 2
)

// AttrType discriminates Attr values.
type AttrType int8

// Attribute value types.
const (
	AttrString AttrType = iota
	AttrInt
	AttrFloat
	AttrBool
)

// Attr is one typed key/value attribute on a span or span event.
type Attr struct {
	Key  string
	Type AttrType
	Str  string
	Int  int64
	Flt  float64
	Bool bool
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Type: AttrString, Str: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Type: AttrInt, Int: v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Type: AttrFloat, Flt: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Type: AttrBool, Bool: v} }

// Value returns the attribute's value as an any, for JSON summaries.
func (a Attr) Value() any {
	switch a.Type {
	case AttrInt:
		return a.Int
	case AttrFloat:
		return a.Flt
	case AttrBool:
		return a.Bool
	}
	return a.Str
}

// SpanEvent is a point-in-time observation attached to a span (an
// EncodeDone, DecodeDone, KernelDone or Evicted obs event).
type SpanEvent struct {
	Name  string
	Time  time.Time
	Attrs []Attr
}

// Link connects a span to a causally related span it does not parent
// under — in S/C, a node whose input read was served from cache links to
// the span that produced (or last encoded) that output, in this run or a
// previous one. Attributes carry the reason (sc.link.reason) and the
// producing node (sc.node).
type Link struct {
	TraceID TraceID
	SpanID  SpanID
	Attrs   []Attr
}

// Span is one completed (or still-open) trace span.
type Span struct {
	TraceID TraceID
	SpanID  SpanID
	Parent  SpanID // zero for a trace root
	Name    string
	Kind    Kind
	Start   time.Time
	End     time.Time
	Attrs   []Attr
	Events  []SpanEvent
	Links   []Link
	// Err carries the failure message; empty means STATUS_CODE_OK.
	Err string
}

// Duration returns End - Start (zero for open spans).
func (s *Span) Duration() time.Duration {
	if s.End.Before(s.Start) {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Attr returns the named attribute's value and whether it exists.
func (s *Span) Attr(key string) (Attr, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// FloatAttr returns a float-typed attribute's value, or 0.
func (s *Span) FloatAttr(key string) float64 {
	if a, ok := s.Attr(key); ok && a.Type == AttrFloat {
		return a.Flt
	}
	return 0
}

// StrAttr returns a string-typed attribute's value, or "".
func (s *Span) StrAttr(key string) string {
	if a, ok := s.Attr(key); ok && a.Type == AttrString {
		return a.Str
	}
	return ""
}
