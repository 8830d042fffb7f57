// Package metrics implements the execution-metadata store of §III-A: S/C's
// optimizer consumes per-node observations (output sizes, read/write/compute
// times) gathered from past MV refresh runs. The store lives with its
// pipeline: it keeps one entry per node — the latest observation and the
// node's compression-ratio EWMA — plus one workload-wide ratio EWMA, so
// recurring pipelines improve run over run at a footprint that does not
// grow with the number of refreshes. Observations are recorded by
// session.Pipeline.Run from each run's result — the store does not listen
// to the event stream.
//
// The package also holds the system's one learning rule, EWMA: the store
// learns its ratios with it, and the ledger learns its run and node
// baselines with it.
package metrics

import (
	"math"
	"sync"
	"time"

	"github.com/shortcircuit-db/sc/internal/dag"
)

// Observation records one node execution.
type Observation struct {
	Name string
	// RunID correlates the observation with the refresh run (and its
	// trace) that produced it; empty when the run was not identified.
	RunID       string
	OutputBytes int64
	// EncodedBytes is the serialized (possibly compressed) size actually
	// moved to storage; zero when never observed. With encoding enabled it
	// is also a faithful estimate of the compressed Memory Catalog
	// footprint (framing overhead is a few bytes per column).
	EncodedBytes int64
	ReadTime     time.Duration
	WriteTime    time.Duration
	ComputeTime  time.Duration
	When         time.Time
}

// Seconds is the node's execution time: reading its inputs, computing, and
// the write it blocked on.
func (o Observation) Seconds() float64 {
	return (o.ReadTime + o.ComputeTime + o.WriteTime).Seconds()
}

// The learning rule's constants.
const (
	// alpha is the EWMA weight of the newest observation. What it learns
	// drifts slowly (schemas, value distributions and node costs change
	// run over run, not row over row), so recent runs dominate but one odd
	// refresh cannot whipsaw the estimate.
	alpha = 0.3
	// relSigmaFloor floors a sigma at this fraction of its mean so
	// near-constant baselines don't produce infinite z-scores.
	relSigmaFloor = 0.1
)

// EWMA is an exponentially weighted mean and variance, the one learning
// rule of the metadata store and of the ledger's baselines. The zero value
// has learned nothing.
type EWMA struct {
	N    int64
	Mean float64
	Var  float64
}

// Observe folds x in: the first sample is the mean, each later one moves
// it by alpha of its distance.
func (w *EWMA) Observe(x float64) {
	w.N++
	if w.N == 1 {
		w.Mean, w.Var = x, 0
		return
	}
	diff := x - w.Mean
	incr := alpha * diff
	w.Mean += incr
	w.Var = (1 - alpha) * (w.Var + diff*incr)
}

// Sigma is the standard deviation, floored at relSigmaFloor×|Mean|.
func (w *EWMA) Sigma() float64 {
	sigma := math.Sqrt(w.Var)
	if floor := relSigmaFloor * math.Abs(w.Mean); sigma < floor {
		sigma = floor
	}
	return sigma
}

// Z scores x against the mean in units of Sigma, itself floored at a tiny
// epsilon so a constant zero baseline stays finite.
func (w *EWMA) Z(x float64) float64 {
	sigma := w.Sigma()
	if sigma < 1e-12 {
		sigma = 1e-12
	}
	return (x - w.Mean) / sigma
}

// entry is what the store remembers of one node.
type entry struct {
	latest Observation
	ratio  EWMA // encoded/raw across the node's encoded runs
}

// Store holds what the optimizer reads of past runs: an entry per node,
// and the workload-wide encoded/raw EWMA that predicts the compressed size
// of a node never observed (a first run, a new MV in a recurring pipeline)
// instead of falling back to the raw-size guess.
type Store struct {
	mu    sync.Mutex
	nodes map[string]*entry
	ratio EWMA
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{nodes: make(map[string]*entry)}
}

// Record makes o its node's latest observation and folds its
// encoded/raw ratio, when it has one, into the node's and the
// workload-wide EWMAs.
func (s *Store) Record(o Observation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.nodes[o.Name]
	if e == nil {
		e = &entry{}
		s.nodes[o.Name] = e
	}
	e.latest = o
	if o.OutputBytes > 0 && o.EncodedBytes > 0 {
		r := float64(o.EncodedBytes) / float64(o.OutputBytes)
		e.ratio.Observe(r)
		s.ratio.Observe(r)
	}
}

// Latest returns the most recent observation for name.
func (s *Store) Latest(name string) (Observation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.nodes[name]; e != nil {
		return e.latest, true
	}
	return Observation{}, false
}

// Node is what the planner reads of one node.
type Node struct {
	// Latest is the node's latest observation; zero when never observed.
	Latest Observation
	// Bytes is the latest output size, or the caller's guess for a node
	// never observed.
	Bytes int64
	// Encoded is the bytes the output occupies serialized — on storage
	// and, with encoding enabled, in the Memory Catalog: the observed
	// encoded size, else the observed raw size scaled by the node's own
	// ratio (raw when it never learned one), else, for a node never
	// observed, the guess scaled by the workload-wide ratio.
	Encoded int64
	// Predicted is Bytes scaled by the node's own ratio, else by the
	// workload-wide one; Bytes when no ratio has been learned.
	Predicted int64
}

// Nodes reads the store for every node of g, by node id, under one lock;
// guess stands in for the output size of a node never observed.
func (s *Store) Nodes(g *dag.Graph, guess int64) []Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Node, g.Len())
	for i := range out {
		n := &out[i]
		n.Bytes, n.Encoded = guess, scale(guess, s.ratio)
		ratio := s.ratio
		if e := s.nodes[g.Name(dag.NodeID(i))]; e != nil {
			n.Latest, n.Bytes = e.latest, e.latest.OutputBytes
			n.Encoded = scale(n.Bytes, e.ratio)
			if e.latest.EncodedBytes > 0 {
				n.Encoded = e.latest.EncodedBytes
			}
			if e.ratio.N > 0 {
				ratio = e.ratio
			}
		}
		n.Predicted = scale(n.Bytes, ratio)
	}
	return out
}

// scale applies a learned ratio to n bytes, keeping positive sizes at least
// one byte; n itself when w has learned nothing.
func scale(n int64, w EWMA) int64 {
	if w.N == 0 {
		return n
	}
	e := int64(float64(n) * w.Mean)
	if e < 1 && n > 0 {
		e = 1
	}
	return e
}
