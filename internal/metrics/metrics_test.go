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
// optimizer reads — Latest, Ratio, Sizes, EncodedSizes — must
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
			ratio = ratioAlpha*r + (1-ratioAlpha)*ratio
		}
	}
	if len(s.latest) != 1 {
		t.Fatalf("store retains %d observations for one node, want 1", len(s.latest))
	}
	if o, ok := s.Latest("a"); !ok || o != last {
		t.Fatalf("Latest = %+v, %v; want %+v", o, ok, last)
	}
	for _, name := range []string{"a", "never_seen"} { // own EWMA, workload-wide EWMA
		if got, ok := s.Ratio(name); !ok || math.Abs(got-ratio) > 1e-12 {
			t.Fatalf("Ratio(%s) = %v, %v; want %v", name, got, ok, ratio)
		}
	}
	if got := s.Sizes(g, 42); got[0] != last.OutputBytes || got[1] != 42 || got[2] != 42 {
		t.Fatalf("Sizes = %v", got)
	}
	guess := scaleBytes(4000, ratio)
	if got := s.EncodedSizes(g, 4000); got[0] != last.EncodedBytes || got[1] != guess || got[2] != guess {
		t.Fatalf("EncodedSizes = %v, want [%d %d %d]", got, last.EncodedBytes, guess, guess)
	}
}

func TestSizesUsesFallback(t *testing.T) {
	g := chain()
	s := NewStore()
	s.Record(Observation{Name: "b", OutputBytes: 777})
	sizes := s.Sizes(g, 42)
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
	got := s.Seconds(chain())
	if want := []float64{0.6, 0.05, 0}; math.Abs(got[0]-want[0]) > 1e-12 || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Seconds = %v, want %v", got, want)
	}
}
