package metrics

import (
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
)

func pair(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEncodedSizesPrefersEncodedThenRawThenFallback(t *testing.T) {
	g := pair(t)
	s := NewStore()
	// "a" observed with an encoded size; "b" observed without one.
	s.Record(Observation{Name: "a", OutputBytes: 1000, EncodedBytes: 120, When: time.Now()})
	s.Record(Observation{Name: "b", OutputBytes: 500, When: time.Now()})
	got := s.EncodedSizes(g, 9999)
	if got[0] != 120 || got[1] != 500 {
		t.Fatalf("EncodedSizes = %v, want [120 500]", got)
	}
	// Unobserved graph: everything falls back.
	empty := NewStore()
	got = empty.EncodedSizes(g, 9999)
	if got[0] != 9999 || got[1] != 9999 {
		t.Fatalf("fallback EncodedSizes = %v", got)
	}
}

func TestScoresSizedUsesDiskSizes(t *testing.T) {
	g := pair(t)
	s := NewStore()
	d := costmodel.PaperProfile()
	raw := []int64{10 << 20, 1 << 20}
	enc := []int64{1 << 20, 1 << 20}
	plain := s.ScoresSized(g, raw, raw, d)
	comp := s.ScoresSized(g, raw, enc, d)
	if comp[0] >= plain[0] {
		t.Fatalf("compressed disk sizes should shrink node a's score: %f vs %f", comp[0], plain[0])
	}
	// Observed write times still win over the model, either way.
	s.Record(Observation{Name: "a", OutputBytes: 10 << 20, WriteTime: 3 * time.Second, When: time.Now()})
	withObs := s.ScoresSized(g, raw, enc, d)
	if withObs[0] <= comp[0] {
		t.Fatalf("observed 3s write should dominate: %f vs %f", withObs[0], comp[0])
	}
}
