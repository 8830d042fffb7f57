package main

import (
	"context"
	"path/filepath"
	"slices"
	"testing"
)

// TestEmitsWhatBenchmarkJSONNames runs every workload at --quick size,
// both passes, and checks that exactly the workloads and metrics listed in
// BENCHMARK.json come out, each with its unit and a finite value, so a
// drifted name fails `go test` instead of a later PR's comparison.
func TestEmitsWhatBenchmarkJSONNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads (~10 s)")
	}
	var sp spec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, the command runs %v", names, workloads)
	}
	for _, w := range workloads {
		for _, pass := range []struct {
			traced bool
			want   []specMetric
		}{{false, sp.EndToEnd}, {true, sp.PerLayer}} {
			o, err := parseFlags([]string{"--quick", "--workload", w, "--scratch", t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			o.trace = pass.traced
			res, err := runWorkload(context.Background(), o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, pass.traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d operations failed: %s",
					w, pass.traced, res.Correct, res.Failed, res.Attempted, res.FirstErr)
			}
			if len(res.Metrics) != len(pass.want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d",
					w, pass.traced, len(res.Metrics), len(pass.want))
			}
			for _, m := range pass.want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s is listed in BENCHMARK.json but not emitted", w, pass.traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w, m.Name, got.Unit, m.Unit)
				case !finite(got.Value):
					t.Errorf("%s: %s = %v", w, m.Name, got.Value)
				case !pass.traced && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w, m.Name)
				}
			}
			if pass.traced && len(res.Spans) == 0 {
				t.Errorf("%s: traced pass recorded no spans", w)
			}
			// A store call is recorded only inside a traced refresh or
			// round: an orphan means an untraced one paid for recording.
			for _, s := range res.Spans {
				if (s.Name == "storage.read" || s.Name == "storage.write") && (s.Parent < 0 || s.Run < 0) {
					t.Errorf("%s: %s span with parent %d, run %d belongs to no traced refresh", w, s.Name, s.Parent, s.Run)
					break
				}
			}
		}
	}
}

func TestQuantilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16], n=4) == [1.75, 5.5, 12.25]
	s := summarize([]float64{16, 1, 11, 2, 7, 4})
	if s.Q1 != 1.75 || s.Median != 5.5 || s.Q3 != 12.25 || s.Min != 1 || s.Max != 16 || s.N != 6 {
		t.Fatalf("summary %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	steady := func(v float64) metric { return metric{Value: v, summary: summary{N: 5, Median: v, Q1: v, Q3: v}} }
	lower := specMetric{Name: "refresh_wall_s", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "speedup_x", Better: "higher", Bound: 0.1}
	noisy := metric{Value: 1, summary: summary{N: 4, Median: 1, Q1: 0.9, Q3: 1.1}}
	for _, c := range []struct {
		a, b metric
		m    specMetric
		want string
	}{
		{steady(1), steady(1.05), lower, "same"},
		{steady(1), steady(1.2), lower, "worse"},
		{steady(1), steady(0.8), lower, "better"},
		{steady(1), steady(1.2), higher, "better"},
		{steady(1), steady(0.8), higher, "worse"},
		{noisy, steady(1.5), lower, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("verdict(%v → %v, %s) = %s, want %s", c.a.Value, c.b.Value, c.m.Name, got, c.want)
		}
	}
}
