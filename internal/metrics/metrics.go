// Package metrics implements the execution-metadata store of §III-A: S/C's
// optimizer consumes per-node observations (output sizes, read/write/compute
// times) gathered from past MV refresh runs. The store lives with its
// pipeline: it keeps each node's latest observation and the learned
// compression ratios, so recurring pipelines improve run over run at a
// footprint that does not grow with the number of refreshes. Observations
// are recorded by session.Pipeline.Run from each run's result — the store
// does not listen to the event stream.
package metrics

import (
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

// ratioAlpha is the EWMA weight of the newest encoded/raw observation.
// Compression ratios drift slowly (schema and value distributions change
// run over run, not row over row), so recent runs dominate but one odd
// refresh cannot whipsaw the estimate.
const ratioAlpha = 0.3

// Store holds what the optimizer reads of past runs: per node, the latest
// observation and the compression-ratio EWMA.
type Store struct {
	mu     sync.Mutex
	latest map[string]Observation

	// Compression-ratio learning: per-node EWMA of encoded/raw across
	// runs, plus a workload-wide EWMA used to predict encoded sizes for
	// nodes never observed (a first run, a new MV in a recurring
	// pipeline) instead of falling back to the raw-size guess.
	ratios      map[string]float64
	globalRatio float64
	ratioSeen   bool
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{latest: make(map[string]Observation), ratios: make(map[string]float64)}
}

// Record makes o its node's latest observation and folds it into the
// ratio EWMAs.
func (s *Store) Record(o Observation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latest[o.Name] = o
	s.learnRatioLocked(o)
}

// learnRatioLocked folds one observation into the ratio EWMAs. Callers
// hold s.mu.
func (s *Store) learnRatioLocked(o Observation) {
	if o.OutputBytes <= 0 || o.EncodedBytes <= 0 {
		return
	}
	r := float64(o.EncodedBytes) / float64(o.OutputBytes)
	if prev, ok := s.ratios[o.Name]; ok {
		s.ratios[o.Name] = ratioAlpha*r + (1-ratioAlpha)*prev
	} else {
		s.ratios[o.Name] = r
	}
	if s.ratioSeen {
		s.globalRatio = ratioAlpha*r + (1-ratioAlpha)*s.globalRatio
	} else {
		s.globalRatio, s.ratioSeen = r, true
	}
}

// Ratio returns the learned encoded/raw ratio for a node: its own EWMA
// when it has been observed with encoding on, otherwise the workload-wide
// EWMA. ok is false when no encoded observation exists at all.
func (s *Store) Ratio(name string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.ratios[name]; ok {
		return r, true
	}
	if s.ratioSeen {
		return s.globalRatio, true
	}
	return 1, false
}

// PredictEncoded estimates a node's encoded size from a raw-size estimate
// using the learned ratios. Without any encoded observation it returns the
// raw estimate unchanged.
func (s *Store) PredictEncoded(name string, rawBytes int64) int64 {
	r, ok := s.Ratio(name)
	if !ok {
		return rawBytes
	}
	return scaleBytes(rawBytes, r)
}

// Latest returns the most recent observation for name.
func (s *Store) Latest(name string) (Observation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.latest[name]
	return o, ok
}

// Sizes extracts the latest observed output sizes for the graph's nodes,
// using fallback for nodes never observed (e.g. a first run).
func (s *Store) Sizes(g *dag.Graph, fallback int64) []int64 {
	out := make([]int64, g.Len())
	for i := range out {
		if o, ok := s.Latest(g.Name(dag.NodeID(i))); ok {
			out[i] = o.OutputBytes
		} else {
			out[i] = fallback
		}
	}
	return out
}

// Seconds extracts each node's latest observed execution time — reading its
// inputs, computing, and the write it blocked on — with 0 for nodes never
// observed.
func (s *Store) Seconds(g *dag.Graph) []float64 {
	out := make([]float64, g.Len())
	for i := range out {
		if o, ok := s.Latest(g.Name(dag.NodeID(i))); ok {
			out[i] = (o.ReadTime + o.ComputeTime + o.WriteTime).Seconds()
		}
	}
	return out
}

// EncodedSizes extracts the latest observed serialized sizes — the bytes a
// node's output actually occupies on storage and, with encoding enabled,
// in the Memory Catalog. Nodes without a direct encoded observation are
// estimated through the learned compression ratios: a never-observed node
// (a first run, a new MV in a recurring pipeline) gets fallback scaled by
// the workload-wide EWMA — a realistic compressed footprint instead of the
// raw guess — and a node whose latest observation lacks an encoded size is
// scaled by its own ratio when earlier runs learned one, falling back to
// its raw output size otherwise.
func (s *Store) EncodedSizes(g *dag.Graph, fallback int64) []int64 {
	out := make([]int64, g.Len())
	for i := range out {
		name := g.Name(dag.NodeID(i))
		o, ok := s.Latest(name)
		switch {
		case ok && o.EncodedBytes > 0:
			out[i] = o.EncodedBytes
		case ok:
			out[i] = o.OutputBytes
			if r, known := s.nodeRatio(name); known {
				out[i] = scaleBytes(o.OutputBytes, r)
			}
		default:
			out[i] = s.PredictEncoded(name, fallback)
		}
	}
	return out
}

// nodeRatio returns a node's own learned ratio, without the workload-wide
// fallback Ratio applies.
func (s *Store) nodeRatio(name string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.ratios[name]
	return r, ok
}

// scaleBytes applies a ratio, keeping positive sizes at least one byte.
func scaleBytes(n int64, r float64) int64 {
	e := int64(float64(n) * r)
	if e < 1 && n > 0 {
		e = 1
	}
	return e
}
