package metrics

import (
	"math"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/dag"
)

func TestRatioEWMAConvergesAndPredicts(t *testing.T) {
	g := dag.New()
	g.AddNode("a")
	g.AddNode("never_seen")
	s := NewStore()
	if s.ratio.N != 0 || len(s.nodes) != 0 {
		t.Fatal("empty store claims a learned ratio")
	}
	if got := s.Nodes(g, 1000)[0].Predicted; got != 1000 {
		t.Fatalf("prediction without evidence = %d, want the raw estimate", got)
	}
	// Three runs at a steady 4x compression: the EWMA should sit at 0.25.
	for i := 0; i < 3; i++ {
		s.Record(Observation{Name: "a", OutputBytes: 1000, EncodedBytes: 250, When: time.Now()})
	}
	r := s.nodes["a"].ratio.Mean
	if math.Abs(r-0.25) > 1e-9 {
		t.Fatalf("ratio = %v; want 0.25", r)
	}
	// A node never observed borrows the workload-wide ratio.
	if got := s.Nodes(g, 10000)[1].Predicted; got != 2500 {
		t.Fatalf("global prediction = %d, want 2500", got)
	}
	// The EWMA tracks drift, weighted toward recent runs.
	s.Record(Observation{Name: "a", OutputBytes: 1000, EncodedBytes: 500, When: time.Now()})
	r = s.nodes["a"].ratio.Mean
	want := alpha*0.5 + (1-alpha)*0.25
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
	got := encodedSizes(s, g, 5000)
	if got[0] != 100 {
		t.Fatalf("observed node = %d, want its encoded size 100", got[0])
	}
	if got[1] != 500 { // fallback 5000 × global ratio 0.1
		t.Fatalf("never-observed node = %d, want ratio-scaled 500", got[1])
	}
	// A node whose latest observation lost its encoded size (encoding was
	// toggled off) still scales by the ratio earlier runs learned.
	s.Record(Observation{Name: "seen", OutputBytes: 2000, When: time.Now()})
	got = encodedSizes(s, g, 5000)
	if got[0] != 200 {
		t.Fatalf("raw-only latest = %d, want node-ratio-scaled 200", got[0])
	}
}
