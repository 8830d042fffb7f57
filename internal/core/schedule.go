package core

import (
	"context"
	"math"

	"github.com/shortcircuit-db/sc/internal/dag"
)

// Schedule is the forward model of a plan: one serial walk of its order.
// Each node reads its inputs, computes, and then either places its output
// in the Memory Catalog, whose write to storage runs in the background, or
// writes it in the foreground: when it is not flagged, or when placing it
// would take the resident bytes over Cap. Background writes share one write
// channel equally with each other and with a foreground write. A placed
// output is charged Size bytes until its last child has finished and its
// write has landed (§III-C).
//
// With unit durations, instant writes and no cap this is the unit-time model
// of §IV behind MemoryTimeline, PeakMemoryUsage and Feasible; internal/sim
// prices the same walk on a device.
type Schedule struct {
	G    *dag.Graph
	Plan *Plan
	// Size is the bytes node id's output is charged while resident and
	// writes to storage.
	Size func(id dag.NodeID) int64
	Cap  int64 // Memory Catalog capacity in bytes
	// WriteBW is the write channel's bytes per second; 0 lands every write
	// the moment it is issued. Latency is the seconds a foreground write
	// waits before its bytes move.
	WriteBW, Latency float64

	// Read, Compute and Create price node id's input read, its compute and
	// the placing of its output, in seconds; nil takes no time. Read's
	// resident[j] tells whether node j's output is resident; it must not
	// write to it.
	Read    func(id dag.NodeID, resident []bool) float64
	Compute func(id dag.NodeID) float64
	Create  func(id dag.NodeID) float64

	// The hooks observe the walk at the clock's reading; nil is skipped.
	// OnLanded's step is the node's own for a foreground write and -1 for
	// a background one.
	OnStart     func(step int, id dag.NodeID, at float64)
	OnLanded    func(step int, id dag.NodeID, at float64)
	OnReleased  func(id dag.NodeID, bytes int64, at float64)
	OnHighWater func(bytes int64, at float64)
	OnDone      func(r StepRecord)
}

// StepRecord is one node's window of a Schedule walk, in seconds.
type StepRecord struct {
	Step                 int
	ID                   dag.NodeID
	Start, End           float64
	Read, Compute, Write float64 // Write: the foreground write only
	Flagged              bool    // placed in the catalog
	// Resident is the catalog's bytes once the output is placed or
	// written, before the releases the node's finish makes.
	Resident int64
}

// Outcome totals a Schedule walk.
type Outcome struct {
	End       float64 // seconds until the last write landed
	Peak      int64   // resident bytes' high water
	Fallbacks int     // flagged outputs written in the foreground for want of room
}

type walk struct {
	*Schedule
	t     float64
	level int64
	// left counts what a node's output waits on before release: its
	// children still to finish, plus its own background write once placed.
	left []int
	held []bool
	bg   []bgWrite // a foreground write among them has id dag.Invalid
	fg   bool      // a foreground write is in flight
	out  Outcome
}

type bgWrite struct {
	id   dag.NodeID
	left float64 // bytes not yet written
}

// Run walks the plan's order. The context is checked between nodes.
func (s *Schedule) Run(ctx context.Context) (Outcome, error) {
	w := &walk{Schedule: s, left: make([]int, s.G.Len()), held: make([]bool, s.G.Len())}
	for i := range w.left {
		w.left[i] = len(s.G.Children(dag.NodeID(i)))
	}
	for step, id := range s.Plan.Order {
		if err := ctx.Err(); err != nil {
			return Outcome{}, err
		}
		r := StepRecord{Step: step, ID: id, Start: w.t, Flagged: s.Plan.Flagged[id]}
		if s.OnStart != nil {
			s.OnStart(step, id, w.t)
		}
		if s.Read != nil {
			r.Read = s.Read(id, w.held)
		}
		w.advance(r.Read)
		if s.Compute != nil {
			r.Compute = s.Compute(id)
		}
		w.advance(r.Compute)
		size := s.Size(id)
		if r.Flagged && w.level+size > s.Cap {
			r.Flagged = false
			w.out.Fallbacks++
		}
		if r.Flagged {
			if s.Create != nil {
				w.advance(s.Create(id))
			}
			w.level += size
			if w.level > w.out.Peak {
				w.out.Peak = w.level
				if s.OnHighWater != nil {
					s.OnHighWater(w.level, w.t)
				}
			}
			r.Resident = w.level
			w.held[id] = true
			w.left[id]++ // the output now waits on its write too
			if s.WriteBW == 0 {
				w.land(id)
			} else {
				w.bg = append(w.bg, bgWrite{id, float64(size)})
			}
		} else {
			r.Write = w.write(float64(size))
			if s.OnLanded != nil {
				s.OnLanded(step, id, w.t)
			}
			r.Resident = w.level
		}
		for _, par := range s.G.Parents(id) {
			w.finish(par)
		}
		r.End = w.t
		if s.OnDone != nil {
			s.OnDone(r)
		}
	}
	w.share(math.Inf(1), false)
	w.out.End = w.t
	return w.out, nil
}

// advance moves the clock dur seconds on, the background writes going on
// meanwhile.
func (w *walk) advance(dur float64) {
	target := w.t + dur
	w.share(target, false)
	w.t = max(w.t, target)
}

// write runs a foreground write of bytes until it lands and returns its
// seconds.
func (w *walk) write(bytes float64) float64 {
	start := w.t
	if bytes <= 0 || w.WriteBW == 0 {
		return 0
	}
	w.t += w.Latency
	if len(w.bg) == 0 {
		w.t += bytes / w.WriteBW
	} else {
		w.bg, w.fg = append(w.bg, bgWrite{dag.Invalid, bytes}), true
		w.share(math.Inf(1), true)
	}
	return w.t - start
}

// share runs the write channel until the clock reaches until, no write is
// left or, with fg, the foreground write has landed. The writes in flight
// split the channel equally, and each lands as it finishes.
func (w *walk) share(until float64, fg bool) {
	for len(w.bg) > 0 && w.t < until && (w.fg || !fg) {
		rate := w.WriteBW / float64(len(w.bg))
		step := until - w.t
		for _, j := range w.bg {
			step = min(step, j.left/rate)
		}
		w.t += step
		live := w.bg[:0]
		for _, j := range w.bg {
			j.left -= step * rate
			switch {
			case j.left > 1e-9:
				live = append(live, j)
			case j.id == dag.Invalid:
				w.fg = false
			default:
				w.land(j.id)
			}
		}
		w.bg = live
	}
}

// land reports node id's background write landed.
func (w *walk) land(id dag.NodeID) {
	if w.OnLanded != nil {
		w.OnLanded(-1, id, w.t)
	}
	w.finish(id)
}

// finish counts off one thing node id's output waits on and releases the
// output after the last.
func (w *walk) finish(id dag.NodeID) {
	if w.left[id]--; w.left[id] == 0 && w.held[id] {
		w.held[id] = false
		size := w.Size(id)
		w.level -= size
		if w.OnReleased != nil {
			w.OnReleased(id, size, w.t)
		}
	}
}
