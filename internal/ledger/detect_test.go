package ledger

import (
	"fmt"
	"testing"
)

// seed feeds n identical healthy runs so baselines reach MinSamples.
func seed(t *testing.T, l *Ledger, n int, mk func(i int) RunSummary) {
	t.Helper()
	for i := 0; i < n; i++ {
		sum, dec := l.Append(mk(i))
		if sum.Anomalous() {
			t.Fatalf("seed run %d flagged: %+v", i, sum.Anomalies)
		}
		if dec.Keep {
			t.Fatalf("seed run %d kept by tail sampler: %+v", i, dec.Reasons)
		}
	}
}

// twoNodeRun builds a run with nodes "fast" and "slow" at the given walls.
func twoNodeRun(id string, fast, slow float64) RunSummary {
	s := run(id, "p", fast+slow, nil)
	s.Nodes = []NodeSummary{
		{Node: "fast", WallSeconds: fast, SelfSeconds: fast, OutputBytes: 1 << 20},
		{Node: "slow", WallSeconds: slow, SelfSeconds: slow, OutputBytes: 1 << 20},
	}
	return s
}

// TestWallRegressionFlagsExactlyTheSlowedNode is the synthetic-regression
// acceptance test: one node slows down; the detector must flag that node
// and only that node.
func TestWallRegressionFlagsExactlyTheSlowedNode(t *testing.T) {
	l, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	seed(t, l, 5, func(i int) RunSummary {
		return twoNodeRun(fmt.Sprintf("r%d", i), 0.050, 0.050)
	})

	sum, dec := l.Append(twoNodeRun("bad", 0.050, 0.200))
	if len(sum.Anomalies) != 1 {
		t.Fatalf("want exactly 1 anomaly, got %+v", sum.Anomalies)
	}
	a := sum.Anomalies[0]
	if a.Kind != KindWallRegression || a.Node != "slow" {
		t.Fatalf("wrong anomaly: %+v", a)
	}
	if a.Score < 3 {
		t.Fatalf("z-score %g below threshold, should not have fired", a.Score)
	}
	if !dec.Keep {
		t.Fatalf("anomalous run must be tail-sampled in: %+v", dec)
	}
}

func TestSubMillisecondJitterNotFlagged(t *testing.T) {
	l, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	seed(t, l, 5, func(i int) RunSummary {
		return twoNodeRun(fmt.Sprintf("r%d", i), 0.0001, 0.0001)
	})
	// 5x the baseline but only +0.4ms — below MinWallDeltaSeconds.
	sum, _ := l.Append(twoNodeRun("jitter", 0.0001, 0.0005))
	if sum.Anomalous() {
		t.Fatalf("sub-millisecond jitter flagged: %+v", sum.Anomalies)
	}
}

func TestBytesRegression(t *testing.T) {
	l, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string, bytes int64) RunSummary {
		s := run(id, "p", 0.1, nil)
		s.Nodes = []NodeSummary{{Node: "n", WallSeconds: 0.05, SelfSeconds: 0.05, OutputBytes: bytes}}
		return s
	}
	seed(t, l, 5, func(i int) RunSummary { return mk(fmt.Sprintf("r%d", i), 1<<20) })
	sum, _ := l.Append(mk("bloat", 10<<20))
	if len(sum.Anomalies) != 1 || sum.Anomalies[0].Kind != KindBytesRegression || sum.Anomalies[0].Node != "n" {
		t.Fatalf("bytes regression: %+v", sum.Anomalies)
	}
}

func TestRatioCollapse(t *testing.T) {
	l, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string, ratio float64) RunSummary {
		s := run(id, "p", 0.1, nil)
		s.Nodes = []NodeSummary{{Node: "n", WallSeconds: 0.05, SelfSeconds: 0.05, OutputBytes: 1 << 20, Ratio: ratio}}
		return s
	}
	seed(t, l, 5, func(i int) RunSummary { return mk(fmt.Sprintf("r%d", i), 8.0) })
	sum, _ := l.Append(mk("collapse", 2.0)) // below 0.5 × baseline 8.0
	if len(sum.Anomalies) != 1 || sum.Anomalies[0].Kind != KindRatioCollapse {
		t.Fatalf("ratio collapse: %+v", sum.Anomalies)
	}
}

func TestKernelFallbackAppearance(t *testing.T) {
	l, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string, fallbacks int64) RunSummary {
		s := run(id, "p", 0.1, nil)
		s.Nodes = []NodeSummary{{Node: "n", WallSeconds: 0.05, SelfSeconds: 0.05, OutputBytes: 1 << 20, KernelFallbacks: fallbacks}}
		return s
	}
	seed(t, l, 5, func(i int) RunSummary { return mk(fmt.Sprintf("r%d", i), 0) })
	sum, _ := l.Append(mk("reverted", 3))
	if len(sum.Anomalies) != 1 || sum.Anomalies[0].Kind != KindKernelFallback {
		t.Fatalf("kernel fallback: %+v", sum.Anomalies)
	}
	// A node that always falls back is its own baseline — no anomaly.
	l2, _ := New(Config{})
	seed2 := func(i int) RunSummary { return mk(fmt.Sprintf("s%d", i), 2) }
	for i := 0; i < 5; i++ {
		l2.Append(seed2(i))
	}
	sum2, _ := l2.Append(mk("same", 2))
	if sum2.Anomalous() {
		t.Fatalf("habitual fallback flagged: %+v", sum2.Anomalies)
	}
}

func TestEvictionStorm(t *testing.T) {
	l, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string, ev int64) RunSummary {
		s := run(id, "p", 0.1, map[string]float64{"n": 0.05})
		s.Evictions = ev
		return s
	}
	seed(t, l, 5, func(i int) RunSummary { return mk(fmt.Sprintf("r%d", i), 0) })
	sum, _ := l.Append(mk("storm", 20))
	if len(sum.Anomalies) != 1 || sum.Anomalies[0].Kind != KindEvictionStorm {
		t.Fatalf("eviction storm: %+v", sum.Anomalies)
	}
}

func TestMispredictAnomalyOnlyWithFallbackWrites(t *testing.T) {
	l, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Over-reservation alone (actual ≪ reserved) is not an anomaly — it only
	// moves the mispredict ratio.
	over := run("over", "p", 0.1, nil)
	over.ReservedBytes, over.ActualPeakBytes = 1000, 100
	over.Mispredict = 0.9
	sum, _ := l.Append(over)
	if sum.Anomalous() {
		t.Fatalf("over-reservation flagged: %+v", sum.Anomalies)
	}
	if got := l.Stats().Mispredict["p"]; got != 0.9 {
		t.Fatalf("mispredict ratio = %g, want 0.9", got)
	}
	// A reservation that proved too small (blocking writes happened) is.
	under := run("under", "p", 0.1, nil)
	under.ReservedBytes, under.ActualPeakBytes = 1000, 1000
	under.FallbackWrites = 2
	sum, dec := l.Append(under)
	if len(sum.Anomalies) != 1 || sum.Anomalies[0].Kind != KindMispredict {
		t.Fatalf("mispredict anomaly: %+v", sum.Anomalies)
	}
	if !dec.Keep {
		t.Fatal("mispredicted run must be kept")
	}
}

func TestTailSamplingDecisions(t *testing.T) {
	l, err := New(Config{SlowSeconds: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// Failed runs are always kept, and never learned from.
	fail := run("f", "p", 0.1, nil)
	fail.Outcome = OutcomeFailed
	if _, dec := l.Append(fail); !dec.Keep {
		t.Fatal("failed run must be kept")
	}
	if got := l.Stats().Mispredict; len(got) != 0 {
		t.Fatalf("failed run must not create baselines: %v", got)
	}
	// Absolutely slow runs are kept even with no baseline.
	if _, dec := l.Append(run("s", "p", 2.0, nil)); !dec.Keep {
		t.Fatal("run over SlowSeconds must be kept")
	}
	// Healthy runs near baseline are dropped.
	for i := 0; i < 5; i++ {
		l.Append(run(fmt.Sprintf("h%d", i), "q", 0.1, nil))
	}
	if _, dec := l.Append(run("h6", "q", 0.11, nil)); dec.Keep {
		t.Fatalf("healthy run kept: %+v", dec.Reasons)
	}
	// Relatively slow runs (z-score vs pipeline baseline) are kept.
	if sum, dec := l.Append(run("z", "q", 0.5, nil)); !dec.Keep {
		t.Fatalf("z-slow run dropped (anomalies %+v)", sum.Anomalies)
	}
}
