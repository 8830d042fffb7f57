package metrics

import (
	"math"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/dag"
)

func TestRatioEWMAConvergesAndPredicts(t *testing.T) {
	s := NewStore()
	if _, ok := s.Ratio("a"); ok {
		t.Fatal("empty store claims a learned ratio")
	}
	if got := s.PredictEncoded("a", 1000); got != 1000 {
		t.Fatalf("prediction without evidence = %d, want the raw estimate", got)
	}
	// Three runs at a steady 4x compression: the EWMA should sit at 0.25.
	for i := 0; i < 3; i++ {
		s.Record(Observation{Name: "a", OutputBytes: 1000, EncodedBytes: 250, When: time.Now()})
	}
	r, ok := s.Ratio("a")
	if !ok || math.Abs(r-0.25) > 1e-9 {
		t.Fatalf("ratio = %v, %v; want 0.25", r, ok)
	}
	// A node never observed borrows the workload-wide ratio.
	if got := s.PredictEncoded("never_seen", 10000); got != 2500 {
		t.Fatalf("global prediction = %d, want 2500", got)
	}
	// The EWMA tracks drift, weighted toward recent runs.
	s.Record(Observation{Name: "a", OutputBytes: 1000, EncodedBytes: 500, When: time.Now()})
	r, _ = s.Ratio("a")
	want := ratioAlpha*0.5 + (1-ratioAlpha)*0.25
	if math.Abs(r-want) > 1e-9 {
		t.Fatalf("drifted ratio = %v, want %v", r, want)
	}
}

func TestEncodedSizesPredictsNeverObservedNodes(t *testing.T) {
	g := dag.New()
	g.AddNode("seen")
	g.AddNode("new_mv")
	s := NewStore()
	s.Record(Observation{Name: "seen", OutputBytes: 1000, EncodedBytes: 100, When: time.Now()})
	got := s.EncodedSizes(g, 5000)
	if got[0] != 100 {
		t.Fatalf("observed node = %d, want its encoded size 100", got[0])
	}
	if got[1] != 500 { // fallback 5000 × global ratio 0.1
		t.Fatalf("never-observed node = %d, want ratio-scaled 500", got[1])
	}
	// A node whose latest observation lost its encoded size (encoding was
	// toggled off) still scales by the ratio earlier runs learned.
	s.Record(Observation{Name: "seen", OutputBytes: 2000, When: time.Now()})
	got = s.EncodedSizes(g, 5000)
	if got[0] != 200 {
		t.Fatalf("raw-only latest = %d, want node-ratio-scaled 200", got[0])
	}
}
