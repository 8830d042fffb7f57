package ledger

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/obs"
)

// TestRecordRoundTripThroughLedger builds the row of one synthetic run
// record with every run and node column set and appends it: every column
// must come out non-zero and equal to what the record and meta said, and
// read back as appended. A record field FromRun forgets zeroes a column
// here.
func TestRecordRoundTripThroughLedger(t *testing.T) {
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	at := func(n int) time.Time { return base.Add(ms(n)) }
	// Node a runs 100–400 ms, node b (its child) 500–900 ms.
	res := &exec.RunResult{
		Start: at(100), Total: ms(850), FallbackWrites: 1, PeakMemory: 2048,
		Evictions: 1, DecodedBytes: 4096, MaterializedBytes: 2048 + 256,
		Nodes: []exec.NodeMetrics{
			{Name: "a", Start: at(100), End: at(400), OutputBytes: 8192, EncodedSize: 2048, Flagged: true,
				KernelStats: obs.KernelStats{Lowered: 3, Fallbacks: 2}},
			{Name: "b", Start: at(500), End: at(900), OutputBytes: 512, EncodedSize: 256, Flagged: true,
				KernelStats: obs.KernelStats{Lowered: 1, Fallbacks: 1}},
		},
	}
	meta := Meta{
		RunID: "run-9", Pipeline: "p", Tenant: "t", Outcome: OutcomeSucceeded, Start: base,
		WallSeconds: 1.0, QueueWaitSeconds: 0.1, ReservedBytes: 4096, EventsDropped: 2,
	}

	l, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got, _ := l.Append(FromRun(res, map[string][]string{"b": {"a"}}, meta))
	if rows := l.Runs(Filter{Pipeline: "p"}); len(rows) != 1 || !reflect.DeepEqual(rows[0], got) {
		t.Fatalf("appended row %+v reads back as %+v", got, rows)
	}

	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if got.RunID != "run-9" || got.Tenant != "t" || !got.Start.Equal(base) || !near(got.WallSeconds, 1.0) ||
		!near(got.QueueWaitSeconds, 0.1) || got.EventsDropped != 2 {
		t.Errorf("identity and timing from meta: %+v", got)
	}
	if got.ReservedBytes != 4096 || got.ActualPeakBytes != 2048 || !near(got.Mispredict, 0.5) || got.FallbackWrites != 1 {
		t.Errorf("admission accounting: %+v", got)
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

	// A run that never executed is its meta alone.
	if row := FromRun(nil, nil, Meta{RunID: "run-10", Outcome: OutcomeExpired, WallSeconds: 0.5}); row.RunID != "run-10" ||
		row.Outcome != OutcomeExpired || row.WallSeconds != 0.5 || row.Nodes != nil || row.CritPath != nil {
		t.Errorf("a run that never executed: %+v", row)
	}
}
