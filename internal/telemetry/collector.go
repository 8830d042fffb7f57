package telemetry

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/shortcircuit-db/sc/internal/obs"
)

// The schema between the Collector, which writes these names, and the
// readers of a finished trace (CriticalPath, and ledger.Summarize's node
// spans): a name spelled here once cannot drift between the two sides.
// Span events are named by the String() of the obs kind they came from.
const (
	// AttrNode marks a span as one executed DAG node; its value is the node
	// (MV) name. CriticalPath selects node spans by this key, so
	// gateway-side spans (admission, queue wait) never enter the DAG walk.
	AttrNode = "sc.node"
	// AttrRunID is the root span's run identifier.
	AttrRunID = "sc.run_id"

	// Node-span attributes, from the node's NodeDone event.
	AttrOutputBytes  = "sc.output_bytes"
	AttrEncodedBytes = "sc.encoded_bytes" // also on EncodeDone/DecodeDone span events
	AttrFlagged      = "sc.flagged"
)

// CollectorConfig configures a per-run Collector.
type CollectorConfig struct {
	// RunID correlates the trace with the run's obs stream and HTTP
	// surface; stamped on the root span as sc.run_id.
	RunID string
	// RootName names the root span; default "refresh".
	RootName string
	// Parent, when valid, makes the root span a child of a remote span (a
	// client's W3C traceparent flowing through the gateway): the trace ID
	// is inherited instead of generated.
	Parent SpanContext
	// Start is the root span's start; zero means time.Now(). For the
	// gateway this is the enqueue instant, so queue wait is inside the
	// root span.
	Start time.Time
	// Profile captures per-run runtime deltas (GC pauses, heap allocation,
	// goroutine peak) and stamps them on the root span at Finish.
	Profile bool
}

// eventLogCap bounds the events a Collector keeps. A 12-node refresh emits
// a few dozen; the cap only matters for pathological DAGs, where the log
// counts what it dropped instead of growing without bound.
const eventLogCap = 16384

// Collector is the trace of one run: it assembles the run's obs events
// into a trace and keeps the events themselves as a log, which followers
// read replay-then-follow (Events). It implements obs.Observer and is safe
// for a concurrent Controller's emitters. All spans share one trace ID;
// node spans parent under the root span.
type Collector struct {
	mu       sync.Mutex
	trace    TraceID
	root     Span
	open     map[string]*Span
	done     []Span
	finished bool

	log     []obs.Event
	dropped int64
	wake    chan struct{} // closed on the next event or Finish; nil until a follower waits

	profile   bool
	memStart  runtime.MemStats
	goroPeak  int
	nodeSpans int
}

// NewCollector builds a collector and opens the root span.
func NewCollector(cfg CollectorConfig) *Collector {
	c := &Collector{
		open:    make(map[string]*Span),
		profile: cfg.Profile,
	}
	start := cfg.Start
	if start.IsZero() {
		start = time.Now()
	}
	name := cfg.RootName
	if name == "" {
		name = "refresh"
	}
	var parent SpanID
	if cfg.Parent.IsValid() {
		c.trace = cfg.Parent.TraceID
		parent = cfg.Parent.SpanID
	} else {
		c.trace = NewTraceID()
	}
	c.root = Span{
		TraceID: c.trace,
		SpanID:  NewSpanID(),
		Parent:  parent,
		Name:    name,
		Kind:    KindServer,
		Start:   start,
	}
	if cfg.RunID != "" {
		c.root.Attrs = append(c.root.Attrs, Str(AttrRunID, cfg.RunID))
	}
	if c.profile {
		runtime.ReadMemStats(&c.memStart)
		c.goroPeak = runtime.NumGoroutine()
	}
	return c
}

// Context returns the root span's context (for response propagation).
func (c *Collector) Context() SpanContext {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SpanContext{TraceID: c.trace, SpanID: c.root.SpanID, Sampled: true}
}

// OnEvent implements obs.Observer. Spans and span events are placed at
// e.At — which a simulation sets on its virtual clock — or at the moment of
// receipt when the emitter was not run-scoped and left it zero.
func (c *Collector) OnEvent(e obs.Event) {
	now := e.At
	if now.IsZero() {
		now = time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return
	}
	if len(c.log) < eventLogCap {
		c.log = append(c.log, e)
	} else {
		c.dropped++
	}
	c.wakeLocked()
	if c.profile {
		if n := runtime.NumGoroutine(); n > c.goroPeak {
			c.goroPeak = n
		}
	}
	switch e.Kind {
	case obs.NodeStart:
		sp := &Span{
			TraceID: c.trace,
			SpanID:  NewSpanID(),
			Parent:  c.root.SpanID,
			Name:    "node " + e.Node,
			Kind:    KindInternal,
			Start:   now,
			Attrs:   []Attr{Str(AttrNode, e.Node), Int("sc.step", int64(e.Step))},
		}
		c.open[e.Node] = sp
	case obs.NodeDone:
		sp := c.open[e.Node]
		if sp == nil {
			// NodeDone without NodeStart (defensive): synthesize the span
			// from the duration so the trace stays complete.
			sp = &Span{
				TraceID: c.trace, SpanID: NewSpanID(), Parent: c.root.SpanID,
				Name: "node " + e.Node, Kind: KindInternal,
				Start: now.Add(-e.Elapsed),
				Attrs: []Attr{Str(AttrNode, e.Node), Int("sc.step", int64(e.Step))},
			}
		}
		delete(c.open, e.Node)
		sp.End = sp.Start.Add(e.Elapsed) // Elapsed is the node's duration
		sp.Attrs = append(sp.Attrs,
			Int(AttrOutputBytes, e.Bytes),
			Int(AttrEncodedBytes, e.Encoded),
			Float("sc.plan_seconds", e.Plan.Seconds()),
			Float("sc.read_seconds", e.Read.Seconds()),
			Float("sc.write_seconds", e.Write.Seconds()),
			Float("sc.compute_seconds", e.Compute.Seconds()),
			Bool(AttrFlagged, e.Flagged),
		)
		if e.Err != nil {
			sp.Err = e.Err.Error()
		}
		c.nodeSpans++
		c.done = append(c.done, *sp)
	case obs.CacheHit:
		c.attachEventLocked(e, now)
		c.linkCacheHitLocked(e)
	case obs.KernelDone, obs.EncodeDone, obs.DecodeDone, obs.Evicted, obs.Materialized, obs.MemoryHighWater:
		c.attachEventLocked(e, now)
	}
}

// linkCacheHitLocked links the consuming node's span (e.Node) to the span
// in this run that produced the cached output (e.Source). Every run starts
// with an empty catalog, so a cached parent always ran earlier in the same
// run.
func (c *Collector) linkCacheHitLocked(e obs.Event) {
	if e.Source == "" {
		return
	}
	if src := c.spanForNodeLocked(e.Source); src != nil {
		c.addLinkLocked(e.Node, Link{
			TraceID: c.trace,
			SpanID:  src.SpanID,
			Attrs:   []Attr{Str("sc.link.reason", "cached-parent"), Str(AttrNode, e.Source)},
		})
	}
}

// spanForNodeLocked finds a node's span in this run: open first, then the
// latest completed one.
func (c *Collector) spanForNodeLocked(node string) *Span {
	if sp := c.open[node]; sp != nil {
		return sp
	}
	for i := len(c.done) - 1; i >= 0; i-- {
		if c.done[i].StrAttr(AttrNode) == node {
			return &c.done[i]
		}
	}
	return nil
}

// addLinkLocked appends a link to the consuming node's span (falling back
// to the root span), deduplicating identical (span, reason) pairs — a node
// reading the same cached parent several times yields one link.
func (c *Collector) addLinkLocked(consumer string, link Link) {
	sp := c.spanForNodeLocked(consumer)
	if sp == nil {
		sp = &c.root
	}
	for _, l := range sp.Links {
		if l.SpanID == link.SpanID && l.TraceID == link.TraceID {
			return
		}
	}
	sp.Links = append(sp.Links, link)
}

// attachEventLocked files an observation as a span event: on the named
// node's open span when one exists, on its completed span otherwise
// (decodes and evictions name the *consumed* node, which typically already
// finished), and on the root span as a last resort.
func (c *Collector) attachEventLocked(e obs.Event, now time.Time) {
	sp := &c.root
	if e.Node != "" {
		if node := c.spanForNodeLocked(e.Node); node != nil {
			sp = node
		}
	}
	sp.Events = append(sp.Events, SpanEvent{Name: e.Kind.String(), Time: now, Attrs: spanEventAttrs(e)})
}

// spanEventAttrs renders the event-kind-specific fields.
func spanEventAttrs(e obs.Event) []Attr {
	attrs := make([]Attr, 0, 8)
	if e.Node != "" {
		attrs = append(attrs, Str(AttrNode, e.Node))
	}
	if e.Source != "" {
		attrs = append(attrs, Str("sc.source", e.Source))
	}
	if e.Bytes != 0 {
		attrs = append(attrs, Int("sc.bytes", e.Bytes))
	}
	if e.Encoded != 0 {
		attrs = append(attrs, Int(AttrEncodedBytes, e.Encoded))
	}
	if e.Ratio != 0 {
		attrs = append(attrs, Float("sc.ratio", e.Ratio))
	}
	if e.Elapsed != 0 {
		attrs = append(attrs, Float("sc.elapsed_seconds", e.Elapsed.Seconds()))
	}
	if e.Reason != "" {
		attrs = append(attrs, Str("sc.reason", e.Reason))
	}
	if e.Kind == obs.KernelDone {
		attrs = append(attrs,
			Int("sc.kernel.lowered", e.Lowered),
			Int("sc.kernel.fallbacks", e.Fallbacks),
			Int("sc.kernel.chunks_skipped", e.ChunksSkipped),
			Int("sc.kernel.decodes_avoided", e.DecodesAvoided),
			Int("sc.kernel.chunks_passed", e.ChunksPassed),
			Int("sc.kernel.reencoded_chunks", e.ReencodedChunks),
		)
	}
	return attrs
}

// AddChildSpan records a gateway-side span (admission/queue wait) with
// explicit bounds, parented under the root.
func (c *Collector) AddChildSpan(name string, start, end time.Time, attrs ...Attr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return
	}
	c.done = append(c.done, Span{
		TraceID: c.trace,
		SpanID:  NewSpanID(),
		Parent:  c.root.SpanID,
		Name:    name,
		Kind:    KindInternal,
		Start:   start,
		End:     end,
		Attrs:   attrs,
	})
}

// SetRootAttrs appends attributes to the root span.
func (c *Collector) SetRootAttrs(attrs ...Attr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.root.Attrs = append(c.root.Attrs, attrs...)
}

// Finish closes the root span at end (zero means now), closes any
// still-open node spans at the same instant, stamps the profile delta when
// enabled, records errMsg as the root status and closes the event log.
// Finish is idempotent; events arriving after it are dropped.
func (c *Collector) Finish(end time.Time, errMsg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return
	}
	c.finished = true
	c.wakeLocked()
	if end.IsZero() {
		end = time.Now()
	}
	for name, sp := range c.open {
		sp.End = end
		c.done = append(c.done, *sp)
		delete(c.open, name)
	}
	c.root.End = end
	c.root.Err = errMsg
	if c.profile {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if n := runtime.NumGoroutine(); n > c.goroPeak {
			c.goroPeak = n
		}
		c.root.Attrs = append(c.root.Attrs,
			Float("runtime.gc_pause_seconds", time.Duration(m.PauseTotalNs-c.memStart.PauseTotalNs).Seconds()),
			Int("runtime.gc_count", int64(m.NumGC-c.memStart.NumGC)),
			Int("runtime.heap_alloc_bytes", int64(m.TotalAlloc-c.memStart.TotalAlloc)),
			Int("runtime.goroutine_peak", int64(c.goroPeak)),
		)
	}
	c.root.Attrs = append(c.root.Attrs, Int("sc.node_spans", int64(c.nodeSpans)))
}

// Finished reports whether Finish ran.
func (c *Collector) Finished() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finished
}

// wakeLocked wakes the followers waiting on the log.
func (c *Collector) wakeLocked() {
	if c.wake != nil {
		close(c.wake)
		c.wake = nil
	}
}

// Events returns the logged events from index from onward, whether the log
// is closed (Finish ran: no event follows), and, while it is open, a channel
// closed on the next event or on Finish. A follower consumes the events and,
// when there are none and the log is open, waits on the channel.
func (c *Collector) Events(from int) (events []obs.Event, closed bool, wake <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if from < len(c.log) {
		events = c.log[from:len(c.log):len(c.log)]
	}
	if !c.finished {
		if c.wake == nil {
			c.wake = make(chan struct{})
		}
		wake = c.wake
	}
	return events, c.finished, wake
}

// EventsDropped counts the events the log did not keep beyond eventLogCap.
func (c *Collector) EventsDropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Spans snapshots the trace, root span first. Call after Finish for a
// complete trace; open spans are excluded.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, 0, len(c.done)+1)
	root := c.root
	root.Attrs = append([]Attr(nil), c.root.Attrs...)
	root.Events = append([]SpanEvent(nil), c.root.Events...)
	root.Links = append([]Link(nil), c.root.Links...)
	out = append(out, root)
	for _, sp := range c.done {
		sp.Attrs = append([]Attr(nil), sp.Attrs...)
		sp.Events = append([]SpanEvent(nil), sp.Events...)
		sp.Links = append([]Link(nil), sp.Links...)
		out = append(out, sp)
	}
	return out
}

// RunID formats a process-local run identifier for callers that do not
// already have one (scrun, the Refresher facade).
func RunID(seq int64) string { return fmt.Sprintf("run-%06d", seq) }
