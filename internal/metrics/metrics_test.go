package metrics

import (
	"math"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/dag"
)

func chain() *dag.Graph {
	g := dag.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	return g
}

// sizes, encodedSizes and seconds project one field of Nodes, by node id.
func sizes(s *Store, g *dag.Graph, guess int64) []int64 {
	var out []int64
	for _, n := range s.Nodes(g, guess) {
		out = append(out, n.Bytes)
	}
	return out
}

func encodedSizes(s *Store, g *dag.Graph, guess int64) []int64 {
	var out []int64
	for _, n := range s.Nodes(g, guess) {
		out = append(out, n.Encoded)
	}
	return out
}

func seconds(s *Store, g *dag.Graph) []float64 {
	var out []float64
	for _, n := range s.Nodes(g, 0) {
		out = append(out, n.Latest.Seconds())
	}
	return out
}

func TestRecordAndLatest(t *testing.T) {
	s := NewStore()
	if _, ok := s.Latest("a"); ok {
		t.Fatal("empty store returned an observation")
	}
	s.Record(Observation{Name: "a", OutputBytes: 100})
	s.Record(Observation{Name: "a", OutputBytes: 200})
	o, ok := s.Latest("a")
	if !ok || o.OutputBytes != 200 {
		t.Fatalf("Latest = %+v, %v", o, ok)
	}
}

// TestStoreKeepsOneObservationPerNode: a node recorded on every refresh of
// a long-lived pipeline must not grow the store, and everything the
// optimizer reads — Latest, the ratios, Nodes' sizes — must
// answer as if every observation had been kept: the newest observation plus
// the EWMAs folded over the whole sequence.
func TestStoreKeepsOneObservationPerNode(t *testing.T) {
	g := chain()
	s := NewStore()
	var last Observation
	var ratio float64
	for i := 0; i < 10000; i++ {
		last = Observation{
			Name: "a", OutputBytes: int64(1000 + i), EncodedBytes: int64(250 + i%7),
			WriteTime: time.Duration(i+1) * time.Millisecond,
		}
		s.Record(last)
		r := float64(last.EncodedBytes) / float64(last.OutputBytes)
		if i == 0 {
			ratio = r
		} else {
			ratio += alpha * (r - ratio)
		}
	}
	if len(s.nodes) != 1 {
		t.Fatalf("store retains %d entries for one node, want 1", len(s.nodes))
	}
	if o, ok := s.Latest("a"); !ok || o != last {
		t.Fatalf("Latest = %+v, %v; want %+v", o, ok, last)
	}
	for name, w := range map[string]EWMA{"a": s.nodes["a"].ratio, "workload": s.ratio} {
		if w.N == 0 || math.Abs(w.Mean-ratio) > 1e-12 {
			t.Fatalf("%s ratio = %+v; want mean %v", name, w, ratio)
		}
	}
	if got := sizes(s, g, 42); got[0] != last.OutputBytes || got[1] != 42 || got[2] != 42 {
		t.Fatalf("Sizes = %v", got)
	}
	guess := scale(4000, EWMA{N: 1, Mean: ratio})
	if got := encodedSizes(s, g, 4000); got[0] != last.EncodedBytes || got[1] != guess || got[2] != guess {
		t.Fatalf("EncodedSizes = %v, want [%d %d %d]", got, last.EncodedBytes, guess, guess)
	}
}

func TestSizesUsesFallback(t *testing.T) {
	g := chain()
	s := NewStore()
	s.Record(Observation{Name: "b", OutputBytes: 777})
	sizes := sizes(s, g, 42)
	if sizes[0] != 42 || sizes[1] != 777 || sizes[2] != 42 {
		t.Fatalf("Sizes = %v", sizes)
	}
}

// TestSecondsSumLatestReadComputeWrite: a node's seconds are its latest
// observation's read, compute and blocking write; never observed is 0.
func TestSecondsSumLatestReadComputeWrite(t *testing.T) {
	s := NewStore()
	s.Record(Observation{Name: "a", ReadTime: time.Second, ComputeTime: time.Second, WriteTime: time.Second})
	s.Record(Observation{Name: "a", ReadTime: 100 * time.Millisecond, ComputeTime: 200 * time.Millisecond, WriteTime: 300 * time.Millisecond})
	s.Record(Observation{Name: "b", ComputeTime: 50 * time.Millisecond})
	got := seconds(s, chain())
	if want := []float64{0.6, 0.05, 0}; math.Abs(got[0]-want[0]) > 1e-12 || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Seconds = %v, want %v", got, want)
	}
}
