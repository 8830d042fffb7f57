// Package obs defines the observer event stream S/C components emit while
// they work: the optimizer reports alternating-optimization iterations, the
// Controller and the simulator report node execution, background
// materialization, Memory Catalog evictions and high-water marks. Consumers
// (progress printers, metrics recorders, dashboards) implement Observer and
// subscribe via the public sc.WithObserver option.
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Kind enumerates event types.
type Kind int

// Event kinds.
const (
	// NodeStart: a node's refresh began. Fields: Node, Step.
	NodeStart Kind = iota
	// NodeDone: a node's refresh finished (output produced, not necessarily
	// materialized). Fields: Node, Step, Bytes (output size), Elapsed,
	// Plan/Read/Write/Compute, Flagged, Form, Err on failure.
	NodeDone
	// Materialized: a node's output finished writing to external storage
	// (foreground or background). Fields: Node, Bytes (encoded size).
	Materialized
	// Evicted: a flagged output left the Memory Catalog. Fields: Node,
	// Bytes, Reason: EvictRelease once its last dependent executed and its
	// materialization completed, EvictSweep when the Controller swept it
	// from a failed or canceled run.
	Evicted
	// IterationDone: one alternating-optimization iteration completed.
	// Fields: Iteration, Score, Bytes (flagged bytes), Elapsed.
	IterationDone
	// MemoryHighWater: the Memory Catalog reached a new peak. Fields: Bytes.
	MemoryHighWater
	// EncodeDone: a node's output was compressed for the Memory Catalog
	// and storage. Fields: Node, Step, Bytes (raw in-memory size), Encoded
	// (compressed size), Ratio, Elapsed (encode time).
	EncodeDone
	// DecodeDone: a compressed Memory Catalog entry or a chunked storage
	// file was decompressed in full to serve a read. Fields: Node, Bytes
	// (decoded in-memory size), Encoded (compressed size), Ratio, Elapsed
	// (decode time).
	DecodeDone
	// KernelDone: a node's plan ran (at least partly) on the
	// compressed-execution kernels. Fields: Node, Step, the node's
	// KernelStats, and Bytes, which repeats their DecodedBytes (raw bytes
	// the kernels materialized).
	KernelDone
	// CacheHit: a node's input read was served from the Memory Catalog
	// without decode work — a plain resident entry or a compressed chunk
	// handoff. Fields: Node (the consuming node), Source (the
	// producing node whose cached output was reused), Step, Bytes.
	CacheHit
)

// String returns the kind's canonical name.
func (k Kind) String() string {
	switch k {
	case NodeStart:
		return "NodeStart"
	case NodeDone:
		return "NodeDone"
	case Materialized:
		return "Materialized"
	case Evicted:
		return "Evicted"
	case IterationDone:
		return "IterationDone"
	case MemoryHighWater:
		return "MemoryHighWater"
	case EncodeDone:
		return "EncodeDone"
	case DecodeDone:
		return "DecodeDone"
	case KernelDone:
		return "KernelDone"
	case CacheHit:
		return "CacheHit"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one observation from a refresh, simulation or optimization.
// Unused fields are zero; see the Kind constants for which fields each kind
// fills.
type Event struct {
	Kind Kind
	// RunID correlates every event of one refresh (or simulation) run.
	// Emitters wrap their observer in WithRun; consumers of a shared stream
	// (a gateway pool running concurrent refreshes, an OTLP exporter) use it
	// to attribute interleaved events to the right run. Empty when the
	// emitter was not run-scoped.
	RunID string
	// Seq is a per-run monotonic sequence number (1-based), assigned by
	// WithRun in emission order across all of the run's goroutines; the
	// observers behind WithRun receive the events in Seq order even when a
	// concurrent Controller interleaves its worker pool's. Zero when not
	// run-scoped.
	Seq       int64
	Node      string        // node (MV) name
	Source    string        // CacheHit: the producing node whose cached output was read
	Step      int           // plan position of the node, -1 when not applicable
	Bytes     int64         // payload bytes (output, materialized, evicted, high water)
	Encoded   int64         // NodeDone/EncodeDone/DecodeDone: encoded (compressed) bytes
	Ratio     float64       // EncodeDone/DecodeDone: raw bytes / encoded bytes
	Elapsed   time.Duration // NodeDone: the node's duration; else per kind (simulation: the virtual clock)
	Plan      time.Duration // NodeDone: parse + plan + lower time, input fetches excluded
	Read      time.Duration // NodeDone: input-read time, wherever in the node it was spent
	Write     time.Duration // NodeDone: blocking-write time
	Compute   time.Duration // NodeDone: compute time
	Flagged   bool          // NodeDone: output kept in the Memory Catalog
	Form      string        // NodeDone: the form it is kept there in ("rows", "serialized", "compressed"); empty when not Flagged
	Reason    string        // Evicted: EvictRelease or EvictSweep
	Iteration int           // IterationDone: 1-based iteration number
	Score     float64       // IterationDone: flagged speedup score, seconds
	Err       error         // NodeDone: execution error, if any

	KernelStats // KernelDone

	// At is when the event happened: the wall clock for real runs, the
	// wall-clock image of the virtual clock (base + clock) for simulations.
	// WithRun stamps the present on events whose emitter left it zero.
	At time.Time
}

// Why an entry left the Memory Catalog (Event.Reason of an Evicted event).
const (
	EvictRelease = "release" // the §III-C release protocol freed it
	EvictSweep   = "sweep"   // the cancellation sweep of a failed or canceled run
)

// KernelStats counts what the compressed-execution kernels did and saved
// while one node's plan ran. It is declared once, here: the kernels count
// into it, exec.NodeMetrics reports it and a KernelDone event carries it,
// under the JSON names of the event stream.
type KernelStats struct {
	Lowered         int64 `json:"lowered,omitempty"`          // plan operators served by kernels, a join's filtered side counted as one
	Fallbacks       int64 `json:"fallbacks,omitempty"`        // kernel executions that reverted to the row engine (input not chunked)
	ChunksSkipped   int64 `json:"chunks_skipped,omitempty"`   // column-chunks never touched: rows eliminated or column not projected
	DecodesAvoided  int64 `json:"decodes_avoided,omitempty"`  // column-chunks served encoded (dictionary lookups)
	DecodedBytes    int64 `json:"-"`                          // raw bytes the kernels did materialize; KernelDone reports them as Bytes
	JoinBuildRows   int64 `json:"join_build_rows,omitempty"`  // rows hashed into join build tables by shared key id
	JoinProbeRows   int64 `json:"join_probe_rows,omitempty"`  // rows probed against join build tables
	ChunksPassed    int64 `json:"chunks_passed,omitempty"`    // output chunks emitted from gathered codes, never materialized
	ReencodedChunks int64 `json:"reencoded_chunks,omitempty"` // output chunks re-encoded from materialized values

	// Deprecated: DictReused is always 0. It counted output chunks a
	// cross-run dictionary cache served entirely; each output dictionary now
	// belongs to one chunk builder, and nothing is carried between runs.
	DictReused int64 `json:"-"`
}

// Observer receives events. Implementations must be safe for concurrent use:
// a Controller running with concurrency > 1 emits events from multiple
// goroutines.
type Observer interface {
	OnEvent(Event)
}

// Func adapts a function to Observer.
type Func func(Event)

// OnEvent implements Observer.
func (f Func) OnEvent(e Event) { f(e) }

// Emit sends e to o if o is non-nil.
func Emit(o Observer, e Event) {
	if o != nil {
		o.OnEvent(e)
	}
}

// Multi fans events out to every non-nil observer, in order.
func Multi(observers ...Observer) Observer {
	var live []Observer
	for _, o := range observers {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Observer

func (m multi) OnEvent(e Event) {
	for _, o := range m {
		o.OnEvent(e)
	}
}

// WithRun wraps inner so every event it forwards carries the run
// correlation fields: RunID (as given, possibly empty) and Seq, a 1-based
// counter incremented per event, plus At, the present unless the emitter
// set it. It hands inner one event at a time, so even a Controller's
// concurrent emitters reach inner in Seq order. A nil inner returns nil, so
// a disabled observer chain stays a single nil check on the hot path.
// Events that already carry a RunID (an inner emitter re-scoping an outer
// stream) keep their own fields.
func WithRun(runID string, inner Observer) Observer {
	if inner == nil {
		return nil
	}
	return &runScope{runID: runID, inner: inner}
}

type runScope struct {
	runID string
	mu    sync.Mutex
	seq   int64
	inner Observer
}

func (r *runScope) OnEvent(e Event) {
	// Delivering under the lock is what puts every observer's view in Seq
	// order. The lock is private to this scope, so no observer can re-enter
	// it, and delivery is synchronous: an observer that blocks stalls its
	// emitter with or without it.
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.At.IsZero() {
		e.At = time.Now()
	}
	if e.RunID == "" && e.Seq == 0 {
		r.seq++
		e.RunID, e.Seq = r.runID, r.seq
	}
	r.inner.OnEvent(e)
}
