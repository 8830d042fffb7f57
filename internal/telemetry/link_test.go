package telemetry

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/obs"
)

func linkReason(l Link) string {
	for _, a := range l.Attrs {
		if a.Key == "sc.link.reason" {
			return a.Str
		}
	}
	return ""
}

// TestCacheHitLinksInRunProducer pins satellite behavior: a CacheHit whose
// producer ran earlier in the same run links the consuming span to the
// producer's span in this trace, and repeated hits dedupe to one link.
func TestCacheHitLinksInRunProducer(t *testing.T) {
	c := NewCollector(CollectorConfig{RunID: "run-000001"})
	c.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "a"})
	c.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "a"})
	c.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "b"})
	c.OnEvent(obs.Event{Kind: obs.CacheHit, Node: "b", Source: "a"})
	c.OnEvent(obs.Event{Kind: obs.CacheHit, Node: "b", Source: "a"}) // dup
	c.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "b"})
	c.Finish(time.Time{}, "")

	spans := c.Spans()
	a := spanByName(t, spans, "node a")
	b := spanByName(t, spans, "node b")
	if len(b.Links) != 1 {
		t.Fatalf("b links = %+v, want exactly one (deduped)", b.Links)
	}
	l := b.Links[0]
	if l.TraceID != b.TraceID || l.SpanID != a.SpanID {
		t.Fatalf("link points at %s/%s, want producer span %s", l.TraceID, l.SpanID, a.SpanID)
	}
	if linkReason(l) != "cached-parent" {
		t.Fatalf("link reason = %q", linkReason(l))
	}
	// The hit also lands as an event on the consuming span.
	var seen bool
	for _, ev := range b.Events {
		if ev.Name == "CacheHit" {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("b events missing CacheHit: %+v", b.Events)
	}
}

// TestLinksMarshal pins links through both wire shapes: OTLP JSON
// (spans[].links[] with hex ids and typed attributes) and the HTTP-facing
// SpanJSON form.
func TestLinksMarshal(t *testing.T) {
	spans := sampleTrace()
	prev := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	spans[1].Links = []Link{{
		TraceID: prev.TraceID, SpanID: prev.SpanID,
		Attrs: []Attr{Str("sc.link.reason", "cached-parent"), Str(AttrNode, "a")},
	}}

	payload := MarshalOTLP("sc-test", [][]Span{spans})
	var doc map[string]any
	if err := json.Unmarshal(payload, &doc); err != nil {
		t.Fatal(err)
	}
	ss := doc["resourceSpans"].([]any)[0].(map[string]any)["scopeSpans"].([]any)[0].(map[string]any)
	childJSON := ss["spans"].([]any)[1].(map[string]any)
	links := childJSON["links"].([]any)
	if len(links) != 1 {
		t.Fatalf("otlp links: %+v", links)
	}
	lj := links[0].(map[string]any)
	if lj["traceId"] != prev.TraceID.String() || lj["spanId"] != prev.SpanID.String() {
		t.Fatalf("otlp link ids: %+v", lj)
	}
	var reason string
	for _, a := range lj["attributes"].([]any) {
		kv := a.(map[string]any)
		if kv["key"] == "sc.link.reason" {
			reason = kv["value"].(map[string]any)["stringValue"].(string)
		}
	}
	if reason != "cached-parent" {
		t.Fatalf("otlp link reason = %q", reason)
	}

	js := SpansToJSON(spans)
	if len(js[1].Links) != 1 {
		t.Fatalf("SpanJSON links: %+v", js[1].Links)
	}
	jl := js[1].Links[0]
	if jl.TraceID != prev.TraceID.String() || jl.SpanID != prev.SpanID.String() {
		t.Fatalf("SpanJSON link ids: %+v", jl)
	}
	if jl.Attrs["sc.link.reason"] != "cached-parent" {
		t.Fatalf("SpanJSON link attrs: %+v", jl.Attrs)
	}
}
