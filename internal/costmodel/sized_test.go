package costmodel

import (
	"testing"

	"github.com/shortcircuit-db/sc/internal/dag"
)

// chain builds a -> b -> c.
func chain(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	return g
}

// sizedScores scores every node with distinct memory and storage
// footprints, as a session with the encoding subsystem on prices them.
func sizedScores(d DeviceProfile, g *dag.Graph, mem, disk []int64) []float64 {
	out := make([]float64, g.Len())
	for i := range out {
		out[i] = Score(ScoreParts(d, g, mem, disk, dag.NodeID(i)))
	}
	return out
}

// TestCompressionShrinksScores: with encoded sizes below raw sizes, every
// flaggable node saves less — the disk transfer it avoids is smaller. The
// optimizer must see this or it will flag nodes compression already made
// cheap to rematerialize.
func TestCompressionShrinksScores(t *testing.T) {
	g := chain(t)
	d := PaperProfile()
	raw := []int64{10 << 20, 5 << 20, 1 << 20}
	enc := []int64{2 << 20, 1 << 20, 200 << 10} // ~5x compression
	plain := Scores(d, g, raw)
	comp := sizedScores(d, g, raw, enc)
	for i := range plain {
		if comp[i] >= plain[i] {
			t.Fatalf("node %d: compressed score %f not below raw %f", i, comp[i], plain[i])
		}
		if comp[i] <= 0 {
			t.Fatalf("node %d: compressed score %f should stay positive", i, comp[i])
		}
	}
}

// TestCompressionCanFlipRanking: two nodes with equal raw sizes but very
// different compressibility must rank differently under the sized model.
func TestCompressionCanFlipRanking(t *testing.T) {
	g := dag.New()
	a := g.AddNode("compressible")
	b := g.AddNode("incompressible")
	c := g.AddNode("sink")
	if err := g.AddEdge(a, c); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	d := PaperProfile()
	raw := []int64{8 << 20, 8 << 20, 1 << 10}
	enc := []int64{1 << 20, 8 << 20, 1 << 10}
	scores := sizedScores(d, g, raw, enc)
	if scores[a] >= scores[b] {
		t.Fatalf("compressible node should save less: %f vs %f", scores[a], scores[b])
	}
}
