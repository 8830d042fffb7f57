package sc

import "github.com/shortcircuit-db/sc/internal/obs"

// Event is one observation from a refresh, simulation or optimization run.
type Event = obs.Event

// EventKind enumerates event types.
type EventKind = obs.Kind

// Event kinds emitted by the Controller, the simulator and the optimizer.
const (
	// NodeStart: a node's refresh began.
	NodeStart = obs.NodeStart
	// NodeDone: a node's refresh finished (output produced).
	NodeDone = obs.NodeDone
	// Materialized: a node's output finished writing to external storage.
	Materialized = obs.Materialized
	// Evicted: a flagged output left the Memory Catalog.
	Evicted = obs.Evicted
	// IterationDone: one alternating-optimization iteration completed.
	IterationDone = obs.IterationDone
	// MemoryHighWater: the Memory Catalog reached a new peak.
	MemoryHighWater = obs.MemoryHighWater
	// EncodeDone: a node's output was compressed (WithEncoding); Bytes is
	// the raw size, Encoded the compressed size, Ratio their quotient,
	// Elapsed the encode time.
	EncodeDone = obs.EncodeDone
	// DecodeDone: a compressed Memory Catalog entry or chunked storage
	// file was decompressed in full to serve a read; Elapsed is the
	// decode time.
	DecodeDone = obs.DecodeDone
	// KernelDone: a node's plan ran (at least partly) on the
	// compressed-execution kernels (WithEncoding); Lowered,
	// ChunksSkipped and DecodesAvoided report what the encoded-domain
	// execution saved, Bytes the raw bytes it still materialized.
	KernelDone = obs.KernelDone
)

// Observer receives the event stream of a refresh. Implementations must be
// safe for concurrent use when running with WithConcurrency(k > 1).
type Observer = obs.Observer

// ObserverFunc adapts a function to Observer.
type ObserverFunc = obs.Func

// MultiObserver fans events out to every non-nil observer, in order.
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }
