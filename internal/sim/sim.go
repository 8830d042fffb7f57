// Package sim is a discrete-event simulator of S/C refresh runs. It shares
// the Controller's policy—serial node execution, flagged outputs created in
// the Memory Catalog, background materialization overlapped with downstream
// compute, release on last dependent—but advances a virtual clock using the
// device cost model instead of moving real bytes. This is how the paper's
// 10GB–1TB experiments are reproduced on a laptop: the real engine
// validates the mechanism at small scale, the simulator sweeps the paper's
// scales with the measured device profile.
package sim

import (
	"context"
	"fmt"
	"math"
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
	Fallbacks      int // flagged outputs that did not fit
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
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if cfg.RunID != "" {
		// cfg is a copy; scoping its observer covers every emission below.
		cfg.Observer = obs.WithRun(cfg.RunID, cfg.Observer)
	}
	if cfg.Base.IsZero() {
		cfg.Base = time.Now()
	}
	s := &simState{
		w:       w,
		cfg:     cfg,
		o:       cfg.Observer,
		readBW:  cfg.Device.DiskReadBW * float64(workers),
		writeBW: cfg.Device.DiskWriteBW * float64(workers),
		memBW:   cfg.Device.MemReadBW,
		latency: cfg.Device.DiskLatency.Seconds(),
		scale:   cfg.Device.ComputeScale / float64(workers),
		flagged: make(map[dag.NodeID]*flaggedEntry),
		res:     &Result{},
	}
	if cfg.LRU {
		s.lru = newLRUCache(cfg.Memory)
	}

	remaining := make([]int, w.G.Len())
	for i := range remaining {
		remaining[i] = len(w.G.Children(dag.NodeID(i)))
	}

	for step, id := range plan.Order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		node := w.Nodes[id]
		nt := NodeTiming{Name: node.Name, Start: s.t}
		s.emit(obs.Event{Kind: obs.NodeStart, Node: node.Name, Step: step, Elapsed: vclock(s.t)})

		// Read phase: base tables from storage, parents from memory when
		// flagged-resident (or the LRU cache), otherwise storage.
		readSec := 0.0
		if node.BaseReadBytes > 0 {
			readSec += s.readFrom(node.BaseReadBytes, false, dag.Invalid)
		}
		for _, par := range w.G.Parents(id) {
			inMem := false
			if fe := s.flagged[par]; fe != nil && fe.resident {
				inMem = true
			}
			readSec += s.readFrom(w.Nodes[par].OutputBytes, inMem, par)
		}
		s.advance(readSec)
		nt.ReadSec = readSec
		s.res.ReadSeconds += readSec

		// Compute phase.
		computeSec := node.ComputeSeconds * s.scale
		s.advance(computeSec)
		nt.ComputeSec = computeSec
		s.res.ComputeSeconds += computeSec

		// Write phase.
		eb := node.OutputBytes
		doFlag := plan.Flagged[id] && !cfg.LRU
		if doFlag && s.memUsed+eb > cfg.Memory {
			doFlag = false
			s.res.Fallbacks++
		}
		if doFlag {
			// Create in the Memory Catalog; materialize in background.
			memSec := float64(eb) / s.memBW
			s.advance(memSec)
			fe := &flaggedEntry{resident: true, children: remaining[id], bytes: eb}
			s.flagged[id] = fe
			s.memUsed += eb
			if s.memUsed > s.res.PeakMemory {
				s.res.PeakMemory = s.memUsed
				s.emit(obs.Event{Kind: obs.MemoryHighWater, Step: -1, Bytes: s.memUsed, Elapsed: vclock(s.t)})
			}
			s.bg = append(s.bg, &bgJob{id: id, remaining: float64(eb)})
			nt.Flagged = true
		} else {
			writeSec := s.fgWrite(float64(eb))
			nt.WriteSec = writeSec
			s.res.WriteSeconds += writeSec
			s.emit(obs.Event{Kind: obs.Materialized, Node: node.Name, Step: step, Bytes: eb, Elapsed: vclock(s.t)})
			if s.lru != nil {
				s.lru.insert(int64(id), eb)
			}
		}

		// Completed: release flagged parents whose last child this was.
		for _, par := range w.G.Parents(id) {
			remaining[par]--
			if fe := s.flagged[par]; fe != nil {
				fe.children = remaining[par]
				s.maybeRelease(par, fe)
			}
		}
		nt.End = s.t
		s.res.Timeline = append(s.res.Timeline, nt)
		done := obs.Event{
			Kind: obs.NodeDone, Node: node.Name, Step: step,
			Bytes: node.OutputBytes, Elapsed: vclock(nt.End - nt.Start),
			Read: vclock(nt.ReadSec), Write: vclock(nt.WriteSec), Compute: vclock(nt.ComputeSec),
			Flagged: nt.Flagged,
		}
		if nt.Flagged {
			// The simulator models the paper's one form: whatever plan.Forms
			// says, a flagged output is resident at OutputBytes.
			done.Form = core.Rows.String()
		}
		s.emit(done)
	}

	// Drain remaining background materialization; end-to-end time is when
	// every MV is on storage.
	s.drainBG()
	s.res.Total = s.t
	s.res.QuerySeconds = s.res.ReadSeconds + s.res.ComputeSeconds + s.res.WriteSeconds
	return s.res, nil
}

type flaggedEntry struct {
	resident bool
	children int
	bgDone   bool
	bytes    int64 // bytes charged to the catalog
}

type bgJob struct {
	id        dag.NodeID
	remaining float64 // bytes left to materialize
}

type simState struct {
	w       *Workload
	cfg     Config
	o       obs.Observer
	t       float64
	readBW  float64
	writeBW float64
	memBW   float64
	latency float64
	scale   float64
	memUsed int64
	flagged map[dag.NodeID]*flaggedEntry
	bg      []*bgJob
	lru     *lruCache
	res     *Result
}

// readFrom returns the foreground time to read bytes from memory or
// storage, consulting the LRU cache in LRU mode.
func (s *simState) readFrom(bytes int64, inMem bool, id dag.NodeID) float64 {
	if bytes <= 0 {
		return 0
	}
	if inMem {
		return float64(bytes) / s.memBW
	}
	if s.lru != nil && id != dag.Invalid && s.lru.touch(int64(id)) {
		return float64(bytes) / s.memBW
	}
	return s.latency + float64(bytes)/s.readBW
}

// advance moves the clock forward by dur seconds, progressing background
// materialization jobs that share the write channel among themselves.
func (s *simState) advance(dur float64) {
	target := s.t + dur
	for len(s.bg) > 0 && s.t < target {
		rate := s.writeBW / float64(len(s.bg))
		// Next background completion.
		minFinish := math.Inf(1)
		for _, j := range s.bg {
			if f := j.remaining / rate; f < minFinish {
				minFinish = f
			}
		}
		step := math.Min(minFinish, target-s.t)
		for _, j := range s.bg {
			j.remaining -= step * rate
		}
		s.t += step
		s.reapBG()
	}
	if s.t < target {
		s.t = target
	}
}

// drainBG runs the clock forward until all background materialization
// completes.
func (s *simState) drainBG() {
	for len(s.bg) > 0 {
		rate := s.writeBW / float64(len(s.bg))
		minFinish := math.Inf(1)
		for _, j := range s.bg {
			if f := j.remaining / rate; f < minFinish {
				minFinish = f
			}
		}
		for _, j := range s.bg {
			j.remaining -= minFinish * rate
		}
		s.t += minFinish
		s.reapBG()
	}
}

// fgWrite performs a blocking foreground write of bytes, sharing the write
// channel with background jobs. Returns the elapsed foreground time.
func (s *simState) fgWrite(bytes float64) float64 {
	start := s.t
	if bytes <= 0 {
		return 0
	}
	s.t += s.latency
	if len(s.bg) == 0 {
		s.t += bytes / s.writeBW
		return s.t - start
	}
	remaining := bytes
	for remaining > 0 {
		n := float64(len(s.bg) + 1)
		rate := s.writeBW / n
		// Time until foreground finishes or next bg completion.
		finish := remaining / rate
		for _, j := range s.bg {
			if f := j.remaining / rate; f < finish {
				finish = f
			}
		}
		remaining -= finish * rate
		for _, j := range s.bg {
			j.remaining -= finish * rate
		}
		s.t += finish
		s.reapBG()
		if remaining < 1e-9 {
			remaining = 0
		}
	}
	return s.t - start
}

// reapBG removes completed background jobs and releases memory when both
// conditions hold.
func (s *simState) reapBG() {
	var live []*bgJob
	for _, j := range s.bg {
		if j.remaining > 1e-9 {
			live = append(live, j)
			continue
		}
		if fe := s.flagged[j.id]; fe != nil {
			fe.bgDone = true
			s.emit(obs.Event{Kind: obs.Materialized, Node: s.w.Nodes[j.id].Name, Step: -1, Bytes: s.w.Nodes[j.id].OutputBytes, Elapsed: vclock(s.t)})
			s.maybeRelease(j.id, fe)
		}
	}
	s.bg = live
}

func (s *simState) maybeRelease(id dag.NodeID, fe *flaggedEntry) {
	if fe.resident && fe.children == 0 && fe.bgDone {
		fe.resident = false
		s.memUsed -= fe.bytes
		s.emit(obs.Event{Kind: obs.Evicted, Node: s.w.Nodes[id].Name, Step: -1, Bytes: fe.bytes, Elapsed: vclock(s.t)})
	}
}

// emit sends e stamped with the wall-clock image of the virtual clock.
func (s *simState) emit(e obs.Event) {
	e.At = s.cfg.Base.Add(vclock(s.t))
	obs.Emit(s.o, e)
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
	if _, ok := c.sizes[key]; !ok {
		return false
	}
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), key)
			break
		}
	}
	return true
}

// insert adds an entry, evicting least-recently-used entries to fit.
// Entries larger than the whole cache are not admitted.
func (c *lruCache) insert(key, size int64) {
	if size > c.capacity {
		return
	}
	if old, ok := c.sizes[key]; ok {
		c.used -= old
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		delete(c.sizes, key)
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
