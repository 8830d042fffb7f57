package telemetry

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/obs"
)

func spanByName(t *testing.T, spans []Span, name string) Span {
	t.Helper()
	for _, s := range spans {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("span %q not found among %d spans", name, len(spans))
	return Span{}
}

func TestCollectorRealRun(t *testing.T) {
	c := NewCollector(CollectorConfig{RunID: "run-000001"})
	c.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "a", Step: 0})
	c.OnEvent(obs.Event{Kind: obs.KernelDone, Node: "a", Step: 0, KernelStats: obs.KernelStats{Lowered: 3}})
	c.OnEvent(obs.Event{Kind: obs.EncodeDone, Node: "a", Step: 0, Bytes: 100, Encoded: 40, Ratio: 2.5})
	c.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "a", Step: 0, Bytes: 100, Elapsed: 5 * time.Millisecond, Flagged: true})
	// Decode of a's output while b runs: a's span is closed, so the event
	// attaches to the completed span.
	c.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "b", Step: 1})
	c.OnEvent(obs.Event{Kind: obs.DecodeDone, Node: "a", Bytes: 100, Encoded: 40})
	c.OnEvent(obs.Event{Kind: obs.MemoryHighWater, Bytes: 140})
	c.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "b", Step: 1, Elapsed: 3 * time.Millisecond, Err: errors.New("boom")})
	c.OnEvent(obs.Event{Kind: obs.Evicted, Node: "a", Bytes: 40})
	c.Finish(time.Time{}, "")

	spans := c.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want root + 2 nodes", len(spans))
	}
	root := spans[0]
	if root.StrAttr("sc.run_id") != "run-000001" || root.Kind != KindServer {
		t.Fatalf("root: %+v", root)
	}
	if root.Parent.IsValid() {
		t.Fatal("root must have no parent")
	}
	a := spanByName(t, spans, "node a")
	b := spanByName(t, spans, "node b")
	for _, sp := range []Span{a, b} {
		if sp.TraceID != root.TraceID || sp.Parent != root.SpanID {
			t.Fatalf("node span not parented under root: %+v", sp)
		}
	}
	if d := a.Duration(); d != 5*time.Millisecond {
		t.Fatalf("a duration %v: exec Elapsed must set span duration", d)
	}
	// KernelDone + EncodeDone landed while a was open; the late DecodeDone
	// and Evicted found the completed span by node name.
	names := map[string]bool{}
	for _, ev := range a.Events {
		names[ev.Name] = true
	}
	for _, want := range []string{"KernelDone", "EncodeDone", "DecodeDone", "Evicted"} {
		if !names[want] {
			t.Fatalf("a events %v missing %s", names, want)
		}
	}
	if b.Err != "boom" {
		t.Fatalf("b.Err = %q", b.Err)
	}
	// MemoryHighWater has no node: it lands on the root.
	if len(root.Events) != 1 || root.Events[0].Name != "MemoryHighWater" {
		t.Fatalf("root events: %+v", root.Events)
	}
	if c.NodeSpanCount() != 2 {
		t.Fatalf("NodeSpanCount = %d", c.NodeSpanCount())
	}
	if !root.End.After(root.Start) && root.End != root.Start {
		t.Fatal("root not closed")
	}
}

func TestCollectorVirtualClock(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	c := NewCollector(CollectorConfig{Start: base})
	// Simulator events sit At base plus the virtual clock; NodeDone's
	// Elapsed is the node's duration, as on the real engine.
	at := func(sec int) time.Time { return base.Add(time.Duration(sec) * time.Second) }
	c.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "a", At: at(1)})
	c.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "a", At: at(4), Elapsed: 3 * time.Second})
	c.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "b", At: at(4)})
	c.OnEvent(obs.Event{Kind: obs.Materialized, Node: "a", At: at(6), Bytes: 1})
	c.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "b", At: at(9), Elapsed: 5 * time.Second})
	c.Finish(at(9), "")
	spans := c.Spans()
	a := spanByName(t, spans, "node a")
	if a.Start != at(1) || a.End != at(4) {
		t.Fatalf("a bounds %v..%v", a.Start, a.End)
	}
	if len(a.Events) != 1 || a.Events[0].Time != at(6) {
		t.Fatalf("a's span events %+v, want one at the virtual 6 s", a.Events)
	}
	if b := spanByName(t, spans, "node b"); b.Start != at(4) || b.End != at(9) {
		t.Fatalf("b bounds %v..%v", b.Start, b.End)
	}
	if spans[0].Duration() != 9*time.Second {
		t.Fatalf("root duration %v", spans[0].Duration())
	}
}

func TestCollectorParentContextAndChildSpan(t *testing.T) {
	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	start := time.Now()
	c := NewCollector(CollectorConfig{Parent: remote, Start: start})
	if c.Context().TraceID != remote.TraceID {
		t.Fatal("remote trace ID not inherited")
	}
	c.AddChildSpan("admission", start, start.Add(2*time.Millisecond), Str("sc.tenant", "t1"))
	c.Finish(time.Time{}, "capacity")
	spans := c.Spans()
	if spans[0].Parent != remote.SpanID {
		t.Fatal("root must parent under the remote span")
	}
	if spans[0].Err != "capacity" {
		t.Fatalf("root.Err = %q", spans[0].Err)
	}
	adm := spanByName(t, spans, "admission")
	if adm.Parent != spans[0].SpanID || adm.StrAttr("sc.tenant") != "t1" {
		t.Fatalf("admission span: %+v", adm)
	}
	if adm.Duration() != 2*time.Millisecond {
		t.Fatalf("admission duration %v", adm.Duration())
	}
}

func TestCollectorFinishClosesOpenSpansAndIsIdempotent(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	c.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "a"})
	end := time.Now().Add(time.Second)
	c.Finish(end, "canceled")
	c.Finish(end.Add(time.Hour), "second call ignored")
	if !c.Finished() {
		t.Fatal("Finished() = false")
	}
	spans := c.Spans()
	if spans[0].Err != "canceled" || !spans[0].End.Equal(end) {
		t.Fatalf("root: err=%q end=%v", spans[0].Err, spans[0].End)
	}
	a := spanByName(t, spans, "node a")
	if !a.End.Equal(end) {
		t.Fatalf("open span must close at Finish: %v", a.End)
	}
	// Events after Finish are dropped.
	c.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "late"})
	if n := len(c.Spans()); n != 2 {
		t.Fatalf("%d spans after post-finish event", n)
	}
}

func TestCollectorProfileAttrs(t *testing.T) {
	c := NewCollector(CollectorConfig{Profile: true})
	// Allocate measurably between start and finish.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	_ = sink
	c.Finish(time.Time{}, "")
	root := c.Spans()[0]
	if a, ok := root.Attr("runtime.heap_alloc_bytes"); !ok || a.Int <= 0 {
		t.Fatalf("heap_alloc_bytes: %+v ok=%v", a, ok)
	}
	if a, ok := root.Attr("runtime.goroutine_peak"); !ok || a.Int < 1 {
		t.Fatalf("goroutine_peak: %+v ok=%v", a, ok)
	}
	if _, ok := root.Attr("runtime.gc_pause_seconds"); !ok {
		t.Fatal("gc_pause_seconds missing")
	}
	if _, ok := root.Attr("runtime.gc_count"); !ok {
		t.Fatal("gc_count missing")
	}
}

func TestCollectorConcurrentEmitters(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				node := string(rune('a' + g))
				c.OnEvent(obs.Event{Kind: obs.NodeStart, Node: node})
				c.OnEvent(obs.Event{Kind: obs.KernelDone, Node: node, KernelStats: obs.KernelStats{Lowered: 1}})
				c.OnEvent(obs.Event{Kind: obs.NodeDone, Node: node, Elapsed: time.Microsecond})
			}
		}(g)
	}
	wg.Wait()
	c.Finish(time.Time{}, "")
	if got := c.NodeSpanCount(); got != 8*50 {
		t.Fatalf("NodeSpanCount = %d, want 400", got)
	}
}

// The disabled-telemetry hot path must stay allocation-free: a nil
// observer chain is a single nil check, and the WithRun stamper passes the
// event through by value.
func TestDisabledHotPathZeroAllocs(t *testing.T) {
	e := obs.Event{Kind: obs.NodeDone, Node: "a", Bytes: 1 << 20, Elapsed: time.Millisecond}
	if n := testing.AllocsPerRun(1000, func() {
		obs.Emit(nil, e)
	}); n != 0 {
		t.Fatalf("nil-observer emit allocates %.1f/op", n)
	}
	if o := obs.WithRun("run-000001", nil); o != nil {
		t.Fatal("WithRun(nil) must stay nil")
	}
	stamped := obs.WithRun("run-000001", obs.Func(func(obs.Event) {}))
	if n := testing.AllocsPerRun(1000, func() {
		stamped.OnEvent(e)
	}); n != 0 {
		t.Fatalf("WithRun stamper allocates %.1f/op", n)
	}
}

func BenchmarkDisabledEmit(b *testing.B) {
	e := obs.Event{Kind: obs.NodeDone, Node: "a", Bytes: 1 << 20, Elapsed: time.Millisecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obs.Emit(nil, e)
	}
}

func BenchmarkWithRunStamp(b *testing.B) {
	e := obs.Event{Kind: obs.NodeDone, Node: "a", Bytes: 1 << 20, Elapsed: time.Millisecond}
	o := obs.WithRun("run-000001", obs.Func(func(obs.Event) {}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.OnEvent(e)
	}
}

// The span-event name constants readers switch on are the names the
// Collector writes: the obs kinds' String().
func TestEventNameConstantsMatchObsKinds(t *testing.T) {
	for name, kind := range map[string]obs.Kind{
		EventEncodeDone: obs.EncodeDone, EventDecodeDone: obs.DecodeDone, EventMaterialized: obs.Materialized,
		EventEvicted: obs.Evicted, EventKernelDone: obs.KernelDone,
	} {
		if name != kind.String() {
			t.Errorf("constant %q names obs kind %q", name, kind.String())
		}
	}
}
