package ledger

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/telemetry"
)

// TestEventsRoundTripThroughCollectorAndLedger plays one synthetic run with
// every event kind through the Collector, summarizes its spans and appends
// the row: every run and node column derived from spans must come out
// non-zero and equal to what the events said. The Collector writes the span
// schema and Summarize reads it, so a name that drifts on either side zeroes
// a column here.
func TestEventsRoundTripThroughCollectorAndLedger(t *testing.T) {
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	at := func(n int) time.Time { return base.Add(ms(n)) }
	col := telemetry.NewCollector(telemetry.CollectorConfig{RunID: "run-9", Start: base})
	col.AddChildSpan(telemetry.SpanQueueAdmission, base, at(100))
	// Node a runs 100–400 ms, node b (its child) 500–900 ms.
	for _, e := range []obs.Event{
		{Kind: obs.IterationDone, Iteration: 1, Score: 2.5},
		{Kind: obs.NodeStart, Node: "a", At: at(100)},
		{Kind: obs.DecodeDone, Node: "a", Bytes: 4096, Encoded: 1024, Ratio: 4, At: at(150), Elapsed: ms(5)},
		{Kind: obs.KernelDone, Node: "a", KernelStats: obs.KernelStats{Lowered: 3, Fallbacks: 2}, At: at(200)},
		{Kind: obs.EncodeDone, Node: "a", Bytes: 8192, Encoded: 2048, Ratio: 4, At: at(300), Elapsed: ms(5)},
		{Kind: obs.MemoryHighWater, Step: -1, Bytes: 2048, At: at(300)},
		{Kind: obs.NodeDone, Node: "a", Bytes: 8192, Encoded: 2048, Flagged: true, At: at(400), Elapsed: ms(300)},
		{Kind: obs.NodeStart, Node: "b", Step: 1, At: at(500)},
		{Kind: obs.CacheHit, Node: "b", Source: "a", Step: 1, Bytes: 2048, At: at(510)},
		{Kind: obs.KernelDone, Node: "b", Step: 1, KernelStats: obs.KernelStats{Lowered: 1, Fallbacks: 1}, At: at(600)},
		{Kind: obs.Materialized, Node: "a", Bytes: 2048, At: at(650)},
		{Kind: obs.Evicted, Node: "a", Bytes: 2048, At: at(700)},
		{Kind: obs.EncodeDone, Node: "b", Step: 1, Bytes: 512, Encoded: 256, Ratio: 2, At: at(800), Elapsed: ms(5)},
		{Kind: obs.Materialized, Node: "b", Step: 1, Bytes: 256, At: at(850)},
		{Kind: obs.NodeDone, Node: "b", Step: 1, Bytes: 512, Encoded: 256, Flagged: true, At: at(900), Elapsed: ms(400)},
	} {
		col.OnEvent(e)
	}
	col.Finish(at(1000), "")

	l, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got, _ := l.Append(Summarize(col.Spans(), map[string][]string{"b": {"a"}}, Meta{Pipeline: "p"}))
	if rows := l.Runs(Filter{Pipeline: "p"}); len(rows) != 1 || !reflect.DeepEqual(rows[0], got) {
		t.Fatalf("appended row %+v reads back as %+v", got, rows)
	}

	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if got.RunID != "run-9" || got.TraceID != col.Context().TraceID.String() || !got.Start.Equal(base) ||
		!near(got.WallSeconds, 1.0) || !near(got.QueueWaitSeconds, 0.1) {
		t.Errorf("identity and timing from the root and admission spans: %+v", got)
	}
	if got.OutputBytes != 8192+512 || got.EncodedBytes != 2048+256 || got.DecodedBytes != 4096 ||
		got.MaterializedBytes != 2048+256 || got.Evictions != 1 || got.KernelFallbacks != 3 {
		t.Errorf("byte and count columns: %+v", got)
	}
	if !reflect.DeepEqual(got.CritPath, []string{"a", "b"}) || !near(got.CritPathSeconds, 0.9) {
		t.Errorf("critical path %v over %g s, want [a b] over 0.9 s", got.CritPath, got.CritPathSeconds)
	}
	want := []NodeSummary{
		{Node: "a", WallSeconds: 0.3, SelfSeconds: 0.3, WaitSeconds: 0.1, OutputBytes: 8192, EncodedBytes: 2048,
			Ratio: 4, KernelFallbacks: 2, Flagged: true, Critical: true},
		{Node: "b", WallSeconds: 0.4, SelfSeconds: 0.4, WaitSeconds: 0.1, OutputBytes: 512, EncodedBytes: 256,
			Ratio: 2, KernelFallbacks: 1, Flagged: true, Critical: true},
	}
	if len(got.Nodes) != len(want) {
		t.Fatalf("%d node rows, want %d: %+v", len(got.Nodes), len(want), got.Nodes)
	}
	for i, w := range want {
		g := got.Nodes[i]
		if g.Node != w.Node || !near(g.WallSeconds, w.WallSeconds) || !near(g.SelfSeconds, w.SelfSeconds) ||
			!near(g.WaitSeconds, w.WaitSeconds) || g.OutputBytes != w.OutputBytes || g.EncodedBytes != w.EncodedBytes ||
			g.Ratio != w.Ratio || g.KernelFallbacks != w.KernelFallbacks || g.Flagged != w.Flagged || g.Critical != w.Critical {
			t.Errorf("node row %d = %+v, want %+v", i, g, w)
		}
	}
}
