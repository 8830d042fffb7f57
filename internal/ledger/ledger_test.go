package ledger

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/telemetry"
)

// run builds a healthy synthetic summary for pipeline p with per-node wall
// times; wall is the run total.
func run(id, p string, wall float64, nodes map[string]float64) RunSummary {
	s := RunSummary{
		RunID:    id,
		Pipeline: p,
		Outcome:  OutcomeSucceeded,
		Start:    time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC),

		WallSeconds: wall,
	}
	for n, w := range nodes {
		s.Nodes = append(s.Nodes, NodeSummary{Node: n, WallSeconds: w, SelfSeconds: w, OutputBytes: 1 << 20})
	}
	return s
}

func TestAppendAndFilter(t *testing.T) {
	l, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(run("r1", "a", 1, nil))
	l.Append(run("r2", "b", 1, nil))
	fail := run("r3", "a", 1, nil)
	fail.Outcome = OutcomeFailed
	fail.Tenant = "acme"
	l.Append(fail)

	if got := l.Stats().Runs; got != 3 {
		t.Fatalf("Runs = %d, want 3", got)
	}
	all := l.Runs(Filter{})
	if len(all) != 3 || all[0].RunID != "r3" || all[2].RunID != "r1" {
		t.Fatalf("Runs not newest-first: %+v", all)
	}
	if got := l.Runs(Filter{Pipeline: "a"}); len(got) != 2 {
		t.Fatalf("pipeline filter: %d runs, want 2", len(got))
	}
	if got := l.Runs(Filter{Outcome: OutcomeFailed}); len(got) != 1 || got[0].RunID != "r3" {
		t.Fatalf("outcome filter: %+v", got)
	}
	if got := l.Runs(Filter{Tenant: "acme"}); len(got) != 1 {
		t.Fatalf("tenant filter: %d runs, want 1", len(got))
	}
	if got := l.Runs(Filter{Limit: 2}); len(got) != 2 || got[0].RunID != "r3" {
		t.Fatalf("limit: %+v", got)
	}
}

func TestRingEviction(t *testing.T) {
	l, err := New(Config{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		l.Append(run(fmt.Sprintf("r%d", i), "p", 1, nil))
	}
	if got := l.Stats().Runs; got != 4 {
		t.Fatalf("Runs = %d, want capacity 4", got)
	}
	if got := l.Stats().Evicted; got != 6 {
		t.Fatalf("Evicted = %d, want 6", got)
	}
	runs := l.Runs(Filter{})
	want := []string{"r10", "r9", "r8", "r7"}
	for i, w := range want {
		if runs[i].RunID != w {
			t.Fatalf("runs[%d] = %s, want %s (full: %+v)", i, runs[i].RunID, w, runs)
		}
	}
}

func TestPersistenceReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.ndjson")
	l, err := New(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		l.Append(run(fmt.Sprintf("r%d", i), "p", 1, map[string]float64{"n": 0.1}))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: history and baselines must survive.
	l2, err := New(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Stats().Runs; got != 5 {
		t.Fatalf("replayed Runs = %d, want 5", got)
	}
	bs := l2.Baselines("p")
	if len(bs) != 1 || bs[0].Node != "n" || bs[0].Samples != 5 {
		t.Fatalf("replayed baselines: %+v", bs)
	}
	// A regression appended after reopen is still judged against the
	// replayed baseline.
	slow := run("r6", "p", 1, map[string]float64{"n": 1.0})
	sum, dec := l2.Append(slow)
	if !sum.Anomalous() || !dec.Keep {
		t.Fatalf("post-replay regression not flagged: %+v / %+v", sum.Anomalies, dec)
	}
	// And the new run is on disk for the next replay.
	l3, err := New(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if got := l3.Stats().Runs; got != 6 {
		t.Fatalf("second replay Runs = %d, want 6", got)
	}
	if got := l3.Runs(Filter{Anomalous: true}); len(got) != 1 || got[0].RunID != "r6" {
		t.Fatalf("anomaly not persisted: %+v", got)
	}
}

// TestForget: a forgotten pipeline leaves no baselines and no rows — in the
// wrapped ring, whose remaining rows keep their order, and in the file a
// restart replays — while the other pipeline is untouched.
func TestForget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.ndjson")
	l, err := New(Config{Path: path, Capacity: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ { // wraps: r3..r8 retained, p and q alternating
		l.Append(run(fmt.Sprintf("r%d", i), []string{"p", "q"}[i%2], 1, map[string]float64{"n": 0.1}))
	}
	l.Forget("q")
	l.Append(run("r9", "p", 1, map[string]float64{"n": 0.1}))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := New(Config{Path: path, Capacity: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for _, led := range []*Ledger{l, l2} {
		if bs := led.Baselines("q"); bs != nil {
			t.Fatalf("forgotten pipeline keeps baselines: %+v", bs)
		}
		if bs := led.Baselines("p"); len(bs) != 1 {
			t.Fatalf("forgetting q lost p's baselines: %+v", bs)
		}
		var ids []string
		for _, s := range led.Runs(Filter{}) {
			ids = append(ids, s.RunID)
		}
		if got, want := fmt.Sprint(ids), "[r9 r8 r6 r4]"; got != want {
			t.Fatalf("rows after Forget = %s, want %s", got, want)
		}
	}
}

// TestFileCompaction appends far more than the file cap allows and checks
// the NDJSON file is compacted down to the retained ring — bounded on
// disk, still replayable, newest entries intact.
func TestFileCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.ndjson")
	l, err := open(Config{Capacity: 8, Path: path}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		l.Append(run(fmt.Sprintf("r%d", i), "p", 1, map[string]float64{"n": 0.1}))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// One ring's worth of lines plus at most one cap overshoot before the
	// compaction triggers.
	if fi.Size() > 2048+1024 {
		t.Fatalf("file = %d bytes after compaction, cap 2048", fi.Size())
	}
	l2, err := open(Config{Capacity: 8, Path: path}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	runs := l2.Runs(Filter{})
	if len(runs) == 0 || runs[0].RunID != "r200" {
		t.Fatalf("replay after compaction lost the newest run: %+v", runs)
	}
	for i, r := range runs {
		want := fmt.Sprintf("r%d", 200-i)
		if r.RunID != want {
			t.Fatalf("runs[%d] = %s, want %s", i, r.RunID, want)
		}
	}
}

// TestConcurrentAppendRead hammers the ledger from concurrent writers and
// readers; run with -race this pins the locking discipline.
func TestConcurrentAppendRead(t *testing.T) {
	l, err := New(Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := fmt.Sprintf("p%d", g%2)
				l.Append(run(fmt.Sprintf("g%d-r%d", g, i), p, 0.5, map[string]float64{"n": 0.1}))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = l.Runs(Filter{Pipeline: "p0", Limit: 10})
				_ = l.Baselines("p1")
				_ = l.Health("p0", 0)
				_ = l.Stats()
			}
		}()
	}
	wg.Wait()
	if got := l.Stats().Runs; got != 64 {
		t.Fatalf("Runs = %d, want 64 (ring full)", got)
	}
	if got := l.Stats().Evicted; got != 400-64 {
		t.Fatalf("Evicted = %d, want %d", got, 400-64)
	}
}

// TestSummarizeAdaptsNodeSpans: the span adapter turns a hand-built
// trace's node spans into a record for FromRun — identity, start and wall
// from the root, per-node windows, bytes and flags from the node spans —
// and leaves gateway-side spans and span events alone.
func TestSummarizeAdaptsNodeSpans(t *testing.T) {
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	tid := telemetry.TraceID{1}
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	root := telemetry.Span{TraceID: tid, SpanID: telemetry.SpanID{1}, Name: "refresh", Start: at(0), End: at(1000)}
	queue := telemetry.Span{TraceID: tid, SpanID: telemetry.SpanID{2}, Parent: root.SpanID,
		Name: "queue admission", Start: at(0), End: at(100)}
	nodeA := telemetry.Span{TraceID: tid, SpanID: telemetry.SpanID{3}, Parent: root.SpanID,
		Name: "node a", Start: at(100), End: at(500),
		Attrs: []telemetry.Attr{
			telemetry.Str(telemetry.AttrNode, "a"),
			telemetry.Int(telemetry.AttrOutputBytes, 4096),
			telemetry.Int(telemetry.AttrEncodedBytes, 1024),
			telemetry.Bool(telemetry.AttrFlagged, true),
		},
		Events: []telemetry.SpanEvent{{Name: "Evicted", Time: at(490)}},
	}
	nodeB := telemetry.Span{TraceID: tid, SpanID: telemetry.SpanID{4}, Parent: root.SpanID,
		Name: "node b", Start: at(500), End: at(1000),
		Attrs: []telemetry.Attr{telemetry.Str(telemetry.AttrNode, "b"), telemetry.Int(telemetry.AttrOutputBytes, 2048)},
	}
	s := Summarize([]telemetry.Span{root, queue, nodeA, nodeB}, map[string][]string{"b": {"a"}},
		Meta{RunID: "run-7", Pipeline: "p", Outcome: OutcomeSucceeded})

	if s.RunID != "run-7" || s.TraceID != tid.String() || !s.Start.Equal(base) || s.WallSeconds != 1.0 {
		t.Fatalf("identity and timing: %+v", s)
	}
	if s.OutputBytes != 6144 || s.EncodedBytes != 1024 || s.Evictions != 0 {
		t.Fatalf("byte totals: %+v", s)
	}
	if len(s.Nodes) != 2 || s.Nodes[0].Node != "a" || s.Nodes[1].Node != "b" {
		t.Fatalf("nodes: %+v", s.Nodes)
	}
	if a := s.Nodes[0]; a.WallSeconds != 0.4 || a.Ratio != 4.0 || !a.Flagged || a.WaitSeconds != 0.1 {
		t.Fatalf("node a: %+v", a)
	}
	if !reflect.DeepEqual(s.CritPath, []string{"a", "b"}) || !s.Nodes[1].Critical {
		t.Fatalf("critical path: %v, nodes %+v", s.CritPath, s.Nodes)
	}
	if empty := Summarize(nil, nil, Meta{RunID: "run-8"}); empty.RunID != "run-8" || empty.Outcome != OutcomeSucceeded || empty.Nodes != nil {
		t.Fatalf("a trace-less row: %+v", empty)
	}
}
