// Package sim prices S/C refresh runs on a device instead of moving real
// bytes. It walks a plan with core.Schedule, the one serial forward model
// that is also core's memory proof, and times each read, compute and write
// from the DeviceProfile on a virtual clock. This is how the paper's
// 10GB–1TB experiments are reproduced on a laptop: the real engine
// validates the mechanism at small scale, the simulator sweeps the paper's
// scales with the measured device profile.
package sim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/obs"
)

// Node describes one MV update for simulation.
type Node struct {
	Name           string
	OutputBytes    int64   // size of the produced intermediate table
	BaseReadBytes  int64   // bytes scanned from base tables (always storage)
	ComputeSeconds float64 // pure compute time on one worker
}

// Workload pairs a DAG with per-node simulation parameters.
type Workload struct {
	G     *dag.Graph
	Nodes []Node // indexed by dag.NodeID
}

// Validate checks workload consistency: matching node counts, non-negative
// finite parameters, and acyclicity.
func (w *Workload) Validate() error {
	if w.G == nil {
		return fmt.Errorf("sim: nil graph")
	}
	if len(w.Nodes) != w.G.Len() {
		return fmt.Errorf("sim: %d nodes for %d graph nodes", len(w.Nodes), w.G.Len())
	}
	for i, n := range w.Nodes {
		if n.OutputBytes < 0 || n.BaseReadBytes < 0 || n.ComputeSeconds < 0 ||
			math.IsNaN(n.ComputeSeconds) || math.IsInf(n.ComputeSeconds, 0) {
			return fmt.Errorf("sim: node %d has negative or non-finite parameters", i)
		}
	}
	if !w.G.IsAcyclic() {
		return dag.ErrCycle
	}
	return nil
}

// Config controls a simulation. Background materialization always shares
// the write channel with foreground writes, as in the paper's model.
type Config struct {
	Device costmodel.DeviceProfile
	Memory int64 // Memory Catalog capacity in bytes
	// Workers scales compute and storage bandwidth, modelling the paper's
	// multi-worker Presto clusters (Table V). 0 means 1.
	Workers int
	// LRU enables the paper's LRU-cache baseline instead of flagging:
	// node outputs are cached with LRU eviction in a cache of Memory
	// bytes, and reads check the cache first.
	LRU bool
	// Observer receives the simulated run's event stream (NodeStart,
	// NodeDone, Materialized, Evicted, MemoryHighWater), each stamped At
	// Base plus the virtual clock. NodeDone's Elapsed is the node's
	// duration, as on the real engine; the other kinds carry the virtual
	// clock there. Nil disables observation.
	Observer obs.Observer
	// Base is the wall-clock instant of virtual time zero; zero means now.
	Base time.Time
	// RunID, when non-empty, stamps every emitted event with the run
	// correlation fields (obs.WithRun): RunID plus a monotonic Seq.
	RunID string
}

// NodeTiming records one node's simulated execution window.
type NodeTiming struct {
	Name       string
	Start, End float64 // seconds since run start
	ReadSec    float64
	ComputeSec float64
	WriteSec   float64 // blocking write only
	Flagged    bool
}

// Result aggregates a simulated run.
type Result struct {
	Total          float64 // end-to-end seconds: all MVs materialized
	ReadSeconds    float64 // total foreground input-read time
	ComputeSeconds float64
	WriteSeconds   float64 // total foreground (blocking) write time
	QuerySeconds   float64 // Read + Compute + Write, Table IV's "Query"
	PeakMemory     int64
	Fallbacks      int   // flagged outputs that did not fit
	Evictions      int64 // outputs released from the Memory Catalog
	Timeline       []NodeTiming
}

// Speedup returns base.Total / r.Total.
func (r *Result) Speedup(base *Result) float64 {
	if r.Total == 0 {
		return math.Inf(1)
	}
	return base.Total / r.Total
}

// Run simulates the workload under the plan. The context is checked between
// simulated nodes, so a cancelled or expired context stops the simulation
// with ctx.Err().
func Run(ctx context.Context, w *Workload, plan *core.Plan, cfg Config) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	if len(plan.Order) != w.G.Len() || !w.G.IsTopological(plan.Order) {
		return nil, fmt.Errorf("sim: plan order is not a topological permutation")
	}
	if len(plan.Flagged) != w.G.Len() {
		return nil, fmt.Errorf("sim: plan flags %d nodes of %d", len(plan.Flagged), w.G.Len())
	}
	workers := float64(max(cfg.Workers, 1))
	if cfg.RunID != "" {
		// cfg is a copy; scoping its observer covers every emission below.
		cfg.Observer = obs.WithRun(cfg.RunID, cfg.Observer)
	}
	if cfg.Base.IsZero() {
		cfg.Base = time.Now()
	}
	d := cfg.Device
	latency := d.DiskLatency.Seconds()
	scale := d.ComputeScale / workers
	emit := func(e obs.Event, at float64) {
		e.At = cfg.Base.Add(vclock(at))
		obs.Emit(cfg.Observer, e)
	}
	// read prices reading bytes from memory when fast, else from storage.
	read := func(bytes int64, fast bool) float64 {
		switch {
		case bytes <= 0:
			return 0
		case fast:
			return float64(bytes) / d.MemReadBW
		}
		return latency + float64(bytes)/(d.DiskReadBW*workers)
	}
	var lru *lruCache
	if cfg.LRU {
		// The baseline caches written outputs instead of flagging any.
		lru, plan = newLRUCache(cfg.Memory), core.NewPlan(plan.Order)
	}
	res := &Result{}
	out, err := (&core.Schedule{
		G: w.G, Plan: plan, Cap: cfg.Memory,
		Size:    func(id dag.NodeID) int64 { return w.Nodes[id].OutputBytes },
		WriteBW: d.DiskWriteBW * workers, Latency: latency,
		// Base tables come from storage; a parent's output from memory
		// when it is resident or, in LRU mode, cached.
		Read: func(id dag.NodeID, resident []bool) float64 {
			sec := read(w.Nodes[id].BaseReadBytes, false)
			for _, par := range w.G.Parents(id) {
				b := w.Nodes[par].OutputBytes
				sec += read(b, b > 0 && (resident[par] || lru != nil && lru.touch(int64(par))))
			}
			return sec
		},
		Compute: func(id dag.NodeID) float64 { return w.Nodes[id].ComputeSeconds * scale },
		Create:  func(id dag.NodeID) float64 { return float64(w.Nodes[id].OutputBytes) / d.MemReadBW },
		OnStart: func(step int, id dag.NodeID, at float64) {
			emit(obs.Event{Kind: obs.NodeStart, Node: w.Nodes[id].Name, Step: step, Elapsed: vclock(at)}, at)
		},
		OnLanded: func(step int, id dag.NodeID, at float64) {
			n := w.Nodes[id]
			emit(obs.Event{Kind: obs.Materialized, Node: n.Name, Step: step, Bytes: n.OutputBytes, Elapsed: vclock(at)}, at)
			if lru != nil {
				lru.insert(int64(id), n.OutputBytes)
			}
		},
		OnReleased: func(id dag.NodeID, bytes int64, at float64) {
			res.Evictions++
			emit(obs.Event{Kind: obs.Evicted, Node: w.Nodes[id].Name, Step: -1, Bytes: bytes, Elapsed: vclock(at)}, at)
		},
		OnHighWater: func(bytes int64, at float64) {
			emit(obs.Event{Kind: obs.MemoryHighWater, Step: -1, Bytes: bytes, Elapsed: vclock(at)}, at)
		},
		OnDone: func(r core.StepRecord) {
			n := w.Nodes[r.ID]
			res.ReadSeconds += r.Read
			res.ComputeSeconds += r.Compute
			res.WriteSeconds += r.Write
			res.Timeline = append(res.Timeline, NodeTiming{Name: n.Name, Start: r.Start, End: r.End,
				ReadSec: r.Read, ComputeSec: r.Compute, WriteSec: r.Write, Flagged: r.Flagged})
			done := obs.Event{
				Kind: obs.NodeDone, Node: n.Name, Step: r.Step, Bytes: n.OutputBytes, Elapsed: vclock(r.End - r.Start),
				Read: vclock(r.Read), Write: vclock(r.Write), Compute: vclock(r.Compute), Flagged: r.Flagged,
			}
			if r.Flagged {
				// The simulator models the paper's one form: whatever
				// plan.Forms says, a flagged output is resident at OutputBytes.
				done.Form = core.Rows.String()
			}
			emit(done, r.End)
		},
	}).Run(ctx)
	if err != nil {
		return nil, err
	}
	// End-to-end time is when every MV is on storage.
	res.Total, res.PeakMemory, res.Fallbacks = out.End, out.Peak, out.Fallbacks
	res.QuerySeconds = res.ReadSeconds + res.ComputeSeconds + res.WriteSeconds
	return res, nil
}

// vclock converts virtual seconds to a duration for Event.Elapsed.
func vclock(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}

// --- LRU cache for the baseline ---

type lruCache struct {
	capacity int64
	used     int64
	order    []int64 // most recent last
	sizes    map[int64]int64
}

func newLRUCache(capacity int64) *lruCache {
	return &lruCache{capacity: capacity, sizes: make(map[int64]int64)}
}

// touch reports a hit and refreshes recency.
func (c *lruCache) touch(key int64) bool {
	i := slices.Index(c.order, key)
	if i >= 0 {
		c.order = append(slices.Delete(c.order, i, i+1), key)
	}
	return i >= 0
}

// insert adds an entry, evicting least-recently-used entries to fit.
// Entries larger than the whole cache are not admitted.
func (c *lruCache) insert(key, size int64) {
	if size > c.capacity {
		return
	}
	if i := slices.Index(c.order, key); i >= 0 {
		c.order = slices.Delete(c.order, i, i+1)
		c.used -= c.sizes[key]
	}
	for c.used+size > c.capacity && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		c.used -= c.sizes[victim]
		delete(c.sizes, victim)
	}
	c.sizes[key] = size
	c.used += size
	c.order = append(c.order, key)
}
