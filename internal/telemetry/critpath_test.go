package telemetry

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/obs"
)

// buildTrace assembles a synthetic completed trace: root spanning
// [0, wall), one node span per entry with explicit offsets.
func buildTrace(wall float64, nodes map[string][2]float64) []Span {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	trace := NewTraceID()
	root := Span{
		TraceID: trace, SpanID: NewSpanID(), Name: "refresh", Kind: KindServer,
		Start: base, End: base.Add(time.Duration(wall * float64(time.Second))),
		Attrs: []Attr{Str("sc.run_id", "run-000009")},
	}
	spans := []Span{root}
	for name, b := range nodes {
		spans = append(spans, Span{
			TraceID: trace, SpanID: NewSpanID(), Parent: root.SpanID,
			Name: "node " + name, Kind: KindInternal,
			Start: base.Add(time.Duration(b[0] * float64(time.Second))),
			End:   base.Add(time.Duration(b[1] * float64(time.Second))),
			Attrs: []Attr{Str(AttrNode, name)},
		})
	}
	return spans
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCriticalPathDiamond(t *testing.T) {
	// a -> {b, c} -> d. b is slow (the blocking branch); c is fast.
	// Timeline: a [0.1, 1.1), b [1.1, 4.1), c [1.1, 1.6), d [4.1, 5.1);
	// root wall 5.3s (trailing background materialization).
	spans := buildTrace(5.3, map[string][2]float64{
		"a": {0.1, 1.1},
		"b": {1.1, 4.1},
		"c": {1.1, 1.6},
		"d": {4.1, 5.1},
	})
	parents := map[string][]string{
		"b": {"a"}, "c": {"a"}, "d": {"b", "c"},
	}
	rep := CriticalPath(spans, parents)
	if rep.RunID != "run-000009" {
		t.Fatalf("RunID = %q", rep.RunID)
	}
	want := []string{"a", "b", "d"}
	if len(rep.Chain) != len(want) {
		t.Fatalf("chain %v, want %v", rep.Chain, want)
	}
	for i := range want {
		if rep.Chain[i] != want[i] {
			t.Fatalf("chain %v, want %v", rep.Chain, want)
		}
	}
	// Chain telescopes to d's end offset: 5.1s.
	if !approx(rep.ChainSeconds, 5.1) {
		t.Fatalf("ChainSeconds = %v", rep.ChainSeconds)
	}
	if !approx(rep.WallSeconds, 5.3) || !approx(rep.Coverage, 5.1/5.3) {
		t.Fatalf("wall %v coverage %v", rep.WallSeconds, rep.Coverage)
	}
	byName := map[string]CritNode{}
	for _, n := range rep.Nodes {
		byName[n.Node] = n
	}
	// a: source node — wait is root start to a start (queue/admission).
	if n := byName["a"]; !approx(n.WaitSeconds, 0.1) || !approx(n.SelfSeconds, 1.0) || !n.Critical {
		t.Fatalf("a: %+v", n)
	}
	// d waited on b (latest-ending parent), not c: 4.1 - 4.1 = 0.
	if n := byName["d"]; !approx(n.WaitSeconds, 0) || !n.Critical {
		t.Fatalf("d: %+v", n)
	}
	if n := byName["c"]; n.Critical {
		t.Fatalf("c must be off the critical path: %+v", n)
	}
	// Nodes sorted by start.
	if rep.Nodes[0].Node != "a" || rep.Nodes[len(rep.Nodes)-1].Node != "d" {
		t.Fatalf("node order: %+v", rep.Nodes)
	}
}

func TestCriticalPathSchedulingWait(t *testing.T) {
	// b's parent a ends at 1.0 but b starts at 2.5 (worker contention):
	// the gap is wait, not self time.
	spans := buildTrace(4.0, map[string][2]float64{
		"a": {0.0, 1.0},
		"b": {2.5, 4.0},
	})
	rep := CriticalPath(spans, map[string][]string{"b": {"a"}})
	var b CritNode
	for _, n := range rep.Nodes {
		if n.Node == "b" {
			b = n
		}
	}
	if !approx(b.WaitSeconds, 1.5) || !approx(b.SelfSeconds, 1.5) {
		t.Fatalf("b decomposition: %+v", b)
	}
	if !approx(rep.ChainSeconds, 4.0) || !approx(rep.Coverage, 1.0) {
		t.Fatalf("chain %v coverage %v", rep.ChainSeconds, rep.Coverage)
	}
}

// A serial chain's critical path is the whole chain, and it accounts for
// nearly all of the run's wall time: the dispatch gaps between nodes count
// as the next node's wait, so only the root's lead-in and its tail after
// the last node (background writes draining) are left out.
func TestCriticalPathChainCoversWall(t *testing.T) {
	spans := buildTrace(0.042, map[string][2]float64{
		"m1": {0.001, 0.010},
		"m2": {0.0105, 0.020},
		"m3": {0.0203, 0.030},
		"m4": {0.0301, 0.040},
	})
	rep := CriticalPath(spans, map[string][]string{"m2": {"m1"}, "m3": {"m2"}, "m4": {"m3"}})
	if strings.Join(rep.Chain, ",") != "m1,m2,m3,m4" {
		t.Fatalf("chain %v", rep.Chain)
	}
	if rep.Coverage < 0.9 || rep.Coverage > 1.0001 {
		t.Fatalf("coverage %v: chain %vs of wall %vs", rep.Coverage, rep.ChainSeconds, rep.WallSeconds)
	}
}

func TestCriticalPathUnexecutedParent(t *testing.T) {
	// b depends on a cached MV "a" that produced no span this run: b is
	// treated as a source (wait measured from root start) and the walk
	// terminates cleanly.
	spans := buildTrace(2.0, map[string][2]float64{
		"b": {0.5, 2.0},
	})
	rep := CriticalPath(spans, map[string][]string{"b": {"a"}})
	if len(rep.Chain) != 1 || rep.Chain[0] != "b" {
		t.Fatalf("chain %v", rep.Chain)
	}
	if !approx(rep.Nodes[0].WaitSeconds, 0.5) {
		t.Fatalf("b wait: %+v", rep.Nodes[0])
	}
}

func TestCriticalPathIgnoresGatewaySpans(t *testing.T) {
	spans := buildTrace(1.0, map[string][2]float64{"a": {0.2, 1.0}})
	// An admission span without AttrNode must not enter the DAG walk.
	base := spans[0].Start
	spans = append(spans, Span{
		TraceID: spans[0].TraceID, SpanID: NewSpanID(), Parent: spans[0].SpanID,
		Name: "admission", Kind: KindInternal,
		Start: base, End: base.Add(200 * time.Millisecond),
	})
	rep := CriticalPath(spans, nil)
	if len(rep.Nodes) != 1 || rep.Nodes[0].Node != "a" {
		t.Fatalf("nodes: %+v", rep.Nodes)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	if rep := CriticalPath(nil, nil); len(rep.Chain) != 0 || rep.WallSeconds != 0 {
		t.Fatalf("empty trace: %+v", rep)
	}
	spans := buildTrace(1.0, nil)
	if rep := CriticalPath(spans, nil); len(rep.Chain) != 0 || !approx(rep.WallSeconds, 1.0) {
		t.Fatalf("root-only trace: %+v", rep)
	}
}

func TestCriticalPathCollectorEndToEnd(t *testing.T) {
	// Drive a collector with a virtual-clock event sequence, as the
	// simulator emits it, and check the wall-time accounting closes within
	// the 10% acceptance bound (exact, here, since the clock is synthetic).
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	c := NewCollector(CollectorConfig{RunID: "run-000033", Start: base})
	emitNode := func(name string, start, end time.Duration) {
		c.OnEvent(obs.Event{Kind: obs.NodeStart, Node: name, At: base.Add(start)})
		c.OnEvent(obs.Event{Kind: obs.NodeDone, Node: name, At: base.Add(end), Elapsed: end - start})
	}
	emitNode("src", 0, 2*time.Second)
	emitNode("mid", 2*time.Second, 5*time.Second)
	emitNode("out", 5*time.Second, 6*time.Second)
	c.Finish(base.Add(6*time.Second), "")
	rep := CriticalPath(c.Spans(), map[string][]string{
		"mid": {"src"}, "out": {"mid"},
	})
	if len(rep.Chain) != 3 {
		t.Fatalf("chain %v", rep.Chain)
	}
	if rep.Coverage < 0.9 {
		t.Fatalf("coverage %v < 0.9: chain %vs of wall %vs", rep.Coverage, rep.ChainSeconds, rep.WallSeconds)
	}
}
