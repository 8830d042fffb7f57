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

// TestCrossRunLinks exercises the LinkResolver path: a cache hit whose
// producer did not run this run, and a kernel serving chunks from the
// session dictionary cache, both link to the producing span of a previous
// run.
func TestCrossRunLinks(t *testing.T) {
	prev := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	c := NewCollector(CollectorConfig{
		RunID: "run-000002",
		LinkResolver: func(node string) (SpanContext, bool) {
			if node == "a" || node == "b" {
				return prev, true
			}
			return SpanContext{}, false
		},
	})
	// "a" is served from cache without executing this run: the consumer
	// links across runs.
	c.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "b"})
	c.OnEvent(obs.Event{Kind: obs.CacheHit, Node: "b", Source: "a"})
	// Chunks built from the session dictionary cache: the dictionaries came
	// from a previous run of this node.
	c.OnEvent(obs.Event{Kind: obs.KernelDone, Node: "b", KernelStats: obs.KernelStats{DictReused: 3}})
	c.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "b"})
	// A producer the resolver does not know yields no link.
	c.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "d"})
	c.OnEvent(obs.Event{Kind: obs.CacheHit, Node: "d", Source: "ghost"})
	c.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "d"})
	c.Finish(time.Time{}, "")

	spans := c.Spans()
	b := spanByName(t, spans, "node b")
	if len(b.Links) != 1 {
		t.Fatalf("b links = %+v, want one (cache hit and dict reuse point at the same producer span and dedupe)", b.Links)
	}
	l := b.Links[0]
	if l.TraceID != prev.TraceID || l.SpanID != prev.SpanID {
		t.Fatalf("cross-run link points at %s/%s, want previous run's span", l.TraceID, l.SpanID)
	}
	if b.TraceID == prev.TraceID {
		t.Fatal("test setup: previous run must be a different trace")
	}
	if r := linkReason(l); r != "cached-parent" {
		t.Fatalf("link reason = %q", r)
	}
	d := spanByName(t, spans, "node d")
	if len(d.Links) != 0 {
		t.Fatalf("unresolvable producer must not link: %+v", d.Links)
	}
}

// TestSessionDictionaryLinkReason checks the dictionary-reuse link in
// isolation (no cache hit first), where the reason must say why the spans
// are related.
func TestSessionDictionaryLinkReason(t *testing.T) {
	prev := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	c := NewCollector(CollectorConfig{
		LinkResolver: func(node string) (SpanContext, bool) { return prev, node == "a" },
	})
	c.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "a"})
	c.OnEvent(obs.Event{Kind: obs.KernelDone, Node: "a", KernelStats: obs.KernelStats{DictReused: 1}})
	c.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "a"})
	c.Finish(time.Time{}, "")

	a := spanByName(t, c.Spans(), "node a")
	if len(a.Links) != 1 || linkReason(a.Links[0]) != "session-dictionary" {
		t.Fatalf("a links = %+v, want one session-dictionary link", a.Links)
	}
	// Without DictReused the kernel event must not fabricate a link.
	c2 := NewCollector(CollectorConfig{
		LinkResolver: func(node string) (SpanContext, bool) { return prev, true },
	})
	c2.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "a"})
	c2.OnEvent(obs.Event{Kind: obs.KernelDone, Node: "a"})
	c2.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "a"})
	c2.Finish(time.Time{}, "")
	if a2 := spanByName(t, c2.Spans(), "node a"); len(a2.Links) != 0 {
		t.Fatalf("no dict reuse, but links = %+v", a2.Links)
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
