package metrics

import (
	"testing"
	"time"

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
