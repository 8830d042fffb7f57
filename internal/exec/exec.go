// Package exec implements S/C's Controller (§III-B/C): it executes the
// nodes of an MV refresh workload in the order computed by the optimizer,
// creates flagged outputs directly in the Memory Catalog, materializes them
// to external storage in the background overlapped with downstream compute,
// and frees each flagged output once every dependent has executed and its
// materialization has completed.
//
// The Controller is context-aware (cancellation is honored between nodes
// and at every input-read and write boundary within a node), emits obs
// events as it works, and can execute independent DAG nodes on a bounded
// worker pool (Concurrency > 1), starting the longest remaining path first
// (Rank), while the Memory Catalog keeps enforcing the byte budget.
//
// Within a node, inputs resolve in one place (nodeInputs: one handle per
// input, opened on the Memory Catalog's entry when the table is resident,
// else with one Store.Read, whichever of schema, chunk view or rows is asked
// for) and the output takes its stored form in one place (storedForm: chunks
// or rows, the same for the catalog entry and the storage object).
//
// A flagged row-path output is resident in the form its plan names
// (core.Plan.Forms): the rows, or — for a node the optimizer could only keep
// at that size — the serialized bytes its background write is handed anyway,
// as one shared []byte. Children read a serialized resident through the same
// Memory Catalog path as a compressed one and pay the decode they would pay
// after a storage read; release, the cancellation sweep and the fallback to a
// blocking write treat both forms alike, at the size the catalog accounted.
package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shortcircuit-db/sc/internal/colfmt"
	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/kernels"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/sched"
	"github.com/shortcircuit-db/sc/internal/sql"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
)

// NodeSpec declares one MV update: a SQL statement whose output is
// materialized under Name. Inputs are whatever tables the statement scans:
// other nodes' outputs (matched by name) or base tables on storage.
type NodeSpec struct {
	Name string
	SQL  string
}

// Workload is a set of MV updates with dependencies implied by table names.
type Workload struct {
	Nodes []NodeSpec
	// stmts holds each node's parsed statement, by node index: BuildGraph
	// parses every node's SQL once, and each run plans from it.
	stmts []*sql.Statement
}

// BuildGraph parses every node's statement and extracts the dependency DAG:
// an edge u→v whenever node v's statement scans node u's output. It also
// returns, per node, the base tables (non-node inputs) it scans. A workload
// runs only after BuildGraph.
func (w *Workload) BuildGraph() (*dag.Graph, [][]string, error) {
	g := dag.New()
	byName := make(map[string]dag.NodeID, len(w.Nodes))
	for _, n := range w.Nodes {
		if _, dup := byName[n.Name]; dup {
			return nil, nil, fmt.Errorf("exec: duplicate node %q", n.Name)
		}
		byName[n.Name] = g.AddNode(n.Name)
	}
	base := make([][]string, len(w.Nodes))
	stmts := make([]*sql.Statement, len(w.Nodes))
	for i, n := range w.Nodes {
		stmt, err := sql.Parse(n.SQL)
		if err != nil {
			return nil, nil, fmt.Errorf("exec: node %q: %w", n.Name, err)
		}
		stmts[i] = stmt
		inputs := []string{stmt.Select.From.Name}
		for _, j := range stmt.Select.Joins {
			inputs = append(inputs, j.Table.Name)
		}
		for _, in := range inputs {
			if pid, ok := byName[in]; ok {
				if err := g.AddEdge(pid, dag.NodeID(i)); err != nil {
					return nil, nil, fmt.Errorf("exec: node %q: %w", n.Name, err)
				}
			} else {
				base[i] = append(base[i], in)
			}
		}
	}
	if !g.IsAcyclic() {
		return nil, nil, dag.ErrCycle
	}
	w.stmts = stmts
	return g, base, nil
}

// NodeMetrics records one node's execution, the observations §III-A feeds
// back into the optimizer.
type NodeMetrics struct {
	Name         string
	Start, End   time.Time     // the node's run window
	PlanTime     time.Duration // plan + lower (input fetches excluded)
	ReadTime     time.Duration // fetching and resolving all inputs (includes lazy decode)
	ComputeTime  time.Duration // running the plan
	WriteTime    time.Duration // blocking write (zero for flagged nodes)
	EncodeTime   time.Duration // serializing (and compressing) the output
	OutputBytes  int64         // in-memory size of the output
	EncodedSize  int64         // bytes written to storage
	CatalogBytes int64         // bytes accounted in the Memory Catalog (0 if unflagged)
	Rows         int
	Flagged      bool
	MemReads     int // inputs served from the Memory Catalog
	DiskReads    int // inputs read from storage

	// The compressed-execution kernels' counters (zero without Encoding).
	obs.KernelStats
}

// RunResult is the record of a refresh run: what the ledger row, the
// execution metadata and the gateway's counters are built from. The
// run-level counts tally the events the run emits (Evicted, DecodeDone,
// Materialized), whether or not anyone observes them.
type RunResult struct {
	Start          time.Time
	Total          time.Duration // end-to-end: start → all MVs materialized
	Nodes          []NodeMetrics // in plan order (completed nodes only, on error)
	FallbackWrites int           // flagged outputs that did not fit in memory
	PeakMemory     int64         // Memory Catalog high-water mark

	Evictions         int64 // outputs that left the Memory Catalog
	DecodedBytes      int64 // rows decoded from compact inputs, whole-table
	MaterializedBytes int64 // bytes written to storage, behind flagged nodes or in the foreground
}

// TotalRead sums the nodes' input read times.
func (r *RunResult) TotalRead() time.Duration {
	var d time.Duration
	for _, n := range r.Nodes {
		d += n.ReadTime
	}
	return d
}

// TotalCompute sums the nodes' compute times.
func (r *RunResult) TotalCompute() time.Duration {
	var d time.Duration
	for _, n := range r.Nodes {
		d += n.ComputeTime
	}
	return d
}

// Controller coordinates one MV refresh run. It carries nothing from one
// Run to the next: what a run reuses lives in the store and in the
// caller's Memory Catalog.
type Controller struct {
	Store storage.Store   // external storage holding base tables and MVs
	Mem   *memcat.Catalog // bounded Memory Catalog (nil disables flagging)
	Obs   obs.Observer    // optional event stream (must be concurrency-safe)
	// RunID, when non-empty, scopes the event stream: every event this run
	// emits carries RunID plus a per-run monotonic Seq (see obs.WithRun), so
	// consumers of a shared stream — a gateway pool running concurrent
	// refreshes, a trace exporter — can attribute interleaved events to the
	// right run. Empty leaves events unscoped (single-run CLI usage).
	RunID string
	// Concurrency is the run's token budget: up to k independent DAG nodes
	// execute at a time, each on one token, and a node runs on its token
	// alone. Values <= 1 run nodes serially in exact plan order, whatever
	// Rank says. With k > 1 a node starts as soon as all its parents have
	// finished, preferring the ready node of lowest Rank (earliest in the
	// plan order when Rank is nil); the Memory Catalog budget is still
	// enforced byte-for-byte (an output that no longer fits falls back to a
	// blocking write, exactly as in the serial path). When Sched is nil a
	// private k-token pool is created per Run.
	Concurrency int
	// Rank, when non-nil, is one entry per node: the dispatch priority among
	// ready nodes at Concurrency > 1, lowest first (core.DispatchRank: the
	// longest remaining path first, so the critical path starts as early as
	// the DAG allows). At Concurrency <= 1 the dispatch order stays the
	// plan's, the serial schedule its peak memory was proved on.
	Rank []int
	// Sched, when non-nil, is a shared scheduler-wide token pool (the
	// gateway hands every concurrent run the same one, so tenants cannot
	// oversubscribe cores). The dispatcher takes a token per in-flight
	// node — still capped at Concurrency per run — and returns it when the
	// node finishes. Nil creates a private pool of Concurrency tokens.
	Sched *sched.Scheduler
	// Encoding, when non-nil, switches the run onto the compressed path:
	// outputs are compressed once per node, stored compressed in the
	// Memory Catalog (accounted at compressed size, decoded lazily on
	// read) and written to storage in the chunked colfmt format, and each
	// node's plan is lowered onto the compressed-execution kernels
	// (internal/kernels), which resolve inputs as per-chunk lazy readers
	// instead of paying a whole-table decode. A kernel whose input is not
	// chunked falls back to the row engine with byte-identical results.
	// Nil keeps the v1 row path and never lowers. Reads handle both
	// formats either way. Nothing the kernels build outlives the node:
	// each join's output dictionaries belong to its own chunk builder.
	Encoding *encoding.Options

	// awaitHook, when set, runs each time a node is about to wait out
	// background writes (awaitWrites); tests use it to hold a write until
	// exactly that point.
	awaitHook func()
}

// flaggedState tracks the two release conditions of a flagged output
// (§III-C): all dependents executed, and background materialization done.
type flaggedState struct {
	mu       sync.Mutex
	children int
	written  bool
	released bool
	// writeDone is closed once the background write finished and the
	// release it may have triggered ran.
	writeDone chan struct{}
}

// runState is the shared state of one Run invocation.
type runState struct {
	c   *Controller
	w   *Workload
	g   *dag.Graph
	pos []int // plan position per node

	states []*flaggedState // per node; non-nil once the node's output was Put

	wgBG sync.WaitGroup // outstanding background materializations
	// writing lists the flagged outputs whose background write may still
	// be in flight, for a node whose Put waits them out (awaitWrites).
	writingMu sync.Mutex
	writing   []*flaggedState
	bgMu      sync.Mutex
	bgErr     error
	peakSeen  atomic.Int64 // last high-water mark reported via MemoryHighWater

	fallbacks    atomic.Int64
	evictions    atomic.Int64
	decoded      atomic.Int64
	materialized atomic.Int64
}

// completion is what a worker reports back to the dispatcher.
type completion struct {
	id  dag.NodeID
	m   NodeMetrics
	err error
}

// Run executes the workload following the plan. The plan's order indexes
// into w.Nodes via the graph built by BuildGraph; Flagged marks nodes whose
// outputs live in the Memory Catalog until their dependents finish, and
// Forms, when present, the ones kept there as serialized bytes. A plan whose
// slices do not fit the workload, or that names the serialized form for an
// unflagged node or under Encoding, is rejected before anything runs.
//
// Cancellation: when ctx is cancelled or expires, no new node starts and
// in-flight node execution stops at its next input-read or write boundary;
// Run returns the partial RunResult of the nodes that completed together
// with ctx.Err(). Background materializations already handed to the store
// are awaited before returning (Store.Write is not context-aware), so no
// goroutine outlives Run. On other errors the partial result is returned
// as well.
func (c *Controller) Run(ctx context.Context, w *Workload, g *dag.Graph, plan *core.Plan) (*RunResult, error) {
	if len(w.stmts) != len(w.Nodes) {
		return nil, fmt.Errorf("exec: workload of %d nodes has %d parsed statements; run it after BuildGraph", len(w.Nodes), len(w.stmts))
	}
	if len(plan.Order) != len(w.Nodes) {
		return nil, fmt.Errorf("exec: plan has %d steps for %d nodes", len(plan.Order), len(w.Nodes))
	}
	if len(plan.Flagged) != len(w.Nodes) {
		return nil, fmt.Errorf("exec: plan flags %d nodes of %d", len(plan.Flagged), len(w.Nodes))
	}
	if c.Rank != nil && len(c.Rank) != len(w.Nodes) {
		return nil, fmt.Errorf("exec: rank has %d entries for %d nodes", len(c.Rank), len(w.Nodes))
	}
	// A serialized resident is the v1 bytes of the row path; with Encoding
	// the stored form is chunks, which the catalog already holds compact.
	if err := plan.ValidateForms(c.Encoding == nil); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	if !g.IsTopological(plan.Order) {
		return nil, fmt.Errorf("exec: plan order is not topological")
	}
	start := time.Now()
	n := g.Len()

	if c.RunID != "" && c.Obs != nil {
		// Shallow-copy the controller with a run-scoped observer so every
		// emission below carries RunID/Seq without touching the caller's
		// Controller (Run may be invoked again with a different run ID).
		cc := *c
		cc.Obs = obs.WithRun(c.RunID, c.Obs)
		c = &cc
	}

	rs := &runState{
		c:      c,
		w:      w,
		g:      g,
		pos:    core.Positions(plan.Order),
		states: make([]*flaggedState, n),
	}

	workers := c.Concurrency
	if workers < 1 {
		workers = 1
	}
	// The node dispatcher takes one token per in-flight node from the
	// scheduler-wide pool — shared across runs when the caller supplies
	// one, private otherwise.
	sc := c.Sched
	if sc == nil {
		sc = sched.New(workers, 0)
	}

	doneCh := make(chan completion)
	var wgNodes sync.WaitGroup

	// Dispatcher: when a ready node and a token are both available, start
	// the ready node of lowest rank on its own goroutine holding that token;
	// fold completions back into the schedule. The rank is plan position on
	// one token and Rank, when given, on more. Nodes release their token
	// before reporting done, so a finishing node's token is immediately
	// available — to this dispatcher or to a concurrent run sharing the
	// pool.
	rank := rs.pos
	if workers > 1 && c.Rank != nil {
		rank = c.Rank
	}
	indeg := make([]int, n)
	ready := &dag.ReadyHeap{Rank: rank}
	for i := 0; i < n; i++ {
		indeg[i] = len(g.Parents(dag.NodeID(i)))
		if indeg[i] == 0 {
			ready.Push(dag.NodeID(i))
		}
	}
	metricsAt := make([]*NodeMetrics, n) // indexed by plan position
	inflight, executed := 0, 0
	var runErr error

	handle := func(comp completion) {
		inflight--
		if comp.err != nil {
			if runErr == nil {
				runErr = comp.err
			}
			return
		}
		executed++
		m := comp.m
		metricsAt[rs.pos[comp.id]] = &m
		// This node consumed its parents: drop their dependent counts.
		for _, par := range g.Parents(comp.id) {
			if st := rs.states[par]; st != nil {
				st.mu.Lock()
				st.children--
				rs.release(par, st)
				st.mu.Unlock()
			}
		}
		for _, child := range g.Children(comp.id) {
			indeg[child]--
			if indeg[child] == 0 {
				ready.Push(child)
			}
		}
	}

	for executed < n && runErr == nil {
		var tokenCh <-chan struct{}
		if ready.Len() > 0 && inflight < workers {
			tokenCh = sc.TokenCh()
		}
		if tokenCh == nil && inflight == 0 {
			// Nothing runnable and nothing in flight: the only way out is a
			// bug (the order was validated topological above).
			runErr = fmt.Errorf("exec: scheduler stalled with %d/%d nodes executed", executed, n)
			break
		}
		select {
		case <-tokenCh:
			id := ready.Pop()
			inflight++
			wgNodes.Add(1)
			go func(id dag.NodeID) {
				defer wgNodes.Done()
				m, err := rs.execNode(ctx, id, plan.Flagged[id], plan.FormOf(id))
				sc.Release()
				doneCh <- completion{id: id, m: m, err: err}
			}(id)
		case comp := <-doneCh:
			handle(comp)
		case <-ctx.Done():
			if runErr == nil {
				runErr = ctx.Err()
			}
		}
	}
	for inflight > 0 {
		handle(<-doneCh)
	}
	wgNodes.Wait()

	// All MVs materialized: the end-to-end point the paper measures.
	rs.wgBG.Wait()
	if runErr == nil {
		rs.bgMu.Lock()
		runErr = rs.bgErr
		rs.bgMu.Unlock()
	}

	// A cancelled or failed run can strand flagged outputs: the release
	// protocol frees an entry only once every dependent has executed, so a
	// node whose children never ran keeps its bytes resident forever. That
	// is invisible when each run gets a throwaway catalog, but a long-lived
	// catalog (the gateway's shared budget pool) would leak those bytes
	// across refreshes — so sweep whatever release did not. Workers and
	// background writers are done at this point: no further release races.
	if c.Mem != nil {
		for i, st := range rs.states {
			if st == nil {
				continue
			}
			st.mu.Lock()
			if !st.released {
				st.released = true
				rs.evict(dag.NodeID(i), obs.EvictSweep)
			}
			st.mu.Unlock()
		}
	}

	res := &RunResult{Start: start, FallbackWrites: int(rs.fallbacks.Load()), Evictions: rs.evictions.Load(),
		DecodedBytes: rs.decoded.Load(), MaterializedBytes: rs.materialized.Load()}
	for _, m := range metricsAt {
		if m != nil {
			res.Nodes = append(res.Nodes, *m)
		}
	}
	res.Total = time.Since(start)
	if c.Mem != nil {
		res.PeakMemory = c.Mem.Peak()
	}
	return res, runErr
}

// execNode runs one node end to end: plan the SQL, execute it, then either
// Put the output in the Memory Catalog in the form the plan names (flagged,
// materialized in the background) or write it synchronously to storage.
func (rs *runState) execNode(ctx context.Context, id dag.NodeID, flagged bool, form core.Form) (m NodeMetrics, err error) {
	c := rs.c
	spec := rs.w.Nodes[id]
	step := rs.pos[id]
	m.Name = spec.Name
	m.Flagged = flagged && c.Mem != nil

	if err := ctx.Err(); err != nil {
		return m, err
	}
	m.Start = time.Now()
	obs.Emit(c.Obs, obs.Event{Kind: obs.NodeStart, Node: spec.Name, Step: step, At: m.Start})
	defer func() {
		if err != nil {
			obs.Emit(c.Obs, obs.Event{Kind: obs.NodeDone, Node: spec.Name, Step: step, Err: err, Elapsed: time.Since(m.Start)})
		}
	}()

	// Every input goes through one handle: whichever of planning (schema), a
	// kernel (chunk view) or the row engine (rows) asks first opens it, from
	// the Memory Catalog or with the node's only Store.Read of that object.
	in := &nodeInputs{c: c, node: spec.Name, step: step, decoded: &rs.decoded, objs: make(map[string]*input), scans: make(map[string]int)}

	// Plan the statement against current schemas.
	p0 := time.Now()
	planNode, scanned, err := sql.Plan(rs.w.stmts[id], in)
	if err != nil {
		return m, fmt.Errorf("exec: node %q: %w", spec.Name, err)
	}
	for _, name := range scanned {
		in.scans[name]++
	}
	if c.Encoding != nil {
		planNode = kernels.LowerEnv(planNode, &m.KernelStats, *c.Encoding)
	}
	planRead := in.readTime
	m.PlanTime = time.Since(p0) - planRead

	// Execute with resolvers that honor cancellation between input reads;
	// the node's input handles say where each input comes from.
	ectx := &engine.Context{Resolve: func(name string) (*table.Table, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		defer in.timed(time.Now())
		return in.table(name)
	}}
	if c.Encoding != nil {
		// Per-chunk lazy resolution for kernel scans. (nil, nil) sends the
		// kernel to its row-engine fallback, which resolves via Resolve
		// above and surfaces any read error itself.
		ectx.ResolveCompressed = func(name string) (*encoding.Compressed, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			defer in.timed(time.Now())
			return in.chunks(name), nil
		}
	}

	t0 := time.Now()
	var out *table.Table
	var ct *encoding.Compressed
	if join, ok := planNode.(*kernels.HashJoinScan); ok {
		// Join root: the kernel's compressed chunks go straight into the
		// Memory Catalog and the storage format — the output never
		// materializes as rows and never pays the encode-from-rows round
		// trip. A kernel fallback returns the row-engine table instead (ct
		// nil), which takes the classic path below.
		ct, out, err = join.RunChunked(ectx)
	} else {
		out, err = planNode.Run(ectx)
	}
	if err != nil {
		return m, fmt.Errorf("exec: node %q: %w", spec.Name, err)
	}
	m.ReadTime, m.DiskReads, m.MemReads = in.readTime, in.reads, in.memReads
	m.ComputeTime = time.Since(t0) - (in.readTime - planRead)
	if ct != nil {
		m.OutputBytes = ct.RawBytes
		m.Rows = ct.NRows
	} else {
		m.OutputBytes = out.ByteSize()
		m.Rows = out.NumRows()
	}
	if m.Lowered > 0 {
		obs.Emit(c.Obs, obs.Event{Kind: obs.KernelDone, Node: spec.Name, Step: step, Bytes: m.DecodedBytes, KernelStats: m.KernelStats})
	}

	if err := ctx.Err(); err != nil {
		return m, err
	}
	e0 := time.Now()
	entry, encoded, err := c.storedForm(out, ct, form)
	if err != nil {
		return m, fmt.Errorf("exec: node %q: %w", spec.Name, err)
	}
	m.EncodeTime = time.Since(e0)
	m.EncodedSize = int64(len(encoded))
	if _, compressed := entry.(*encoding.Compressed); compressed {
		// Ratio is computed from the same pair the event reports, so
		// observers see consistent numbers (DecodeDone likewise reports
		// the catalog-entry pair it quotes).
		ratio := 1.0
		if m.EncodedSize > 0 {
			ratio = float64(m.OutputBytes) / float64(m.EncodedSize)
		}
		obs.Emit(c.Obs, obs.Event{
			Kind: obs.EncodeDone, Node: spec.Name, Step: step,
			Bytes: m.OutputBytes, Encoded: m.EncodedSize,
			Ratio: ratio, Elapsed: m.EncodeTime,
		})
	}

	if m.Flagged {
		err := c.Mem.PutEntry(spec.Name, entry)
		if err != nil && rs.awaitWrites(ctx) {
			// Entries only their write kept resident have left: try again.
			err = c.Mem.PutEntry(spec.Name, entry)
		}
		if err != nil {
			// Does not fit: fall back to the unflagged path.
			m.Flagged = false
			rs.fallbacks.Add(1)
		} else {
			m.CatalogBytes = entry.SizeBytes()
			rs.noteHighWater()
		}
	}
	if m.Flagged {
		st := &flaggedState{children: len(rs.g.Children(id)), writeDone: make(chan struct{})}
		rs.states[id] = st
		rs.writingMu.Lock()
		rs.writing = append(rs.writing, st)
		rs.writingMu.Unlock()
		rs.wgBG.Add(1)
		go func(name string, data []byte) {
			defer rs.wgBG.Done()
			err := c.Store.Write(tableObject(name), data)
			if err != nil {
				rs.bgMu.Lock()
				if rs.bgErr == nil {
					rs.bgErr = fmt.Errorf("exec: materialize %q: %w", name, err)
				}
				rs.bgMu.Unlock()
			} else {
				rs.materialized.Add(int64(len(data)))
				obs.Emit(c.Obs, obs.Event{Kind: obs.Materialized, Node: name, Step: step, Bytes: int64(len(data))})
			}
			st.mu.Lock()
			st.written = true
			rs.release(id, st)
			st.mu.Unlock()
			close(st.writeDone)
		}(spec.Name, encoded)
	} else {
		tw := time.Now()
		if err := c.Store.Write(tableObject(spec.Name), encoded); err != nil {
			return m, fmt.Errorf("exec: write %q: %w", spec.Name, err)
		}
		m.WriteTime = time.Since(tw)
		rs.materialized.Add(m.EncodedSize)
		obs.Emit(c.Obs, obs.Event{Kind: obs.Materialized, Node: spec.Name, Step: step, Bytes: m.EncodedSize})
	}

	m.End = time.Now()
	done := obs.Event{
		Kind: obs.NodeDone, Node: spec.Name, Step: step,
		Bytes: m.OutputBytes, Encoded: m.EncodedSize, Elapsed: m.End.Sub(m.Start),
		Plan: m.PlanTime, Read: m.ReadTime, Write: m.WriteTime, Compute: m.ComputeTime,
		Flagged: m.Flagged,
	}
	if m.Flagged {
		done.Form = memcat.FormOf(entry)
	}
	obs.Emit(c.Obs, done)
	return m, nil
}

// storedForm settles the one form a node's output is kept in — compressed
// chunks when encoding is on (the kernel's own, ct, or encoded from rows),
// rows otherwise — and returns it as the Memory Catalog entry and
// serialized for storage. On the row path the plan chooses the entry: the
// rows themselves, or the very bytes the storage write is handed.
func (c *Controller) storedForm(out *table.Table, ct *encoding.Compressed, form core.Form) (memcat.Entry, []byte, error) {
	if c.Encoding == nil {
		data, err := colfmt.Encode(out)
		if form == core.Serialized {
			return memcat.SerializedEntry{Data: data, RawBytes: out.ByteSize()}, data, err
		}
		return memcat.Plain(out), data, err
	}
	if ct == nil {
		var err error
		if ct, err = encoding.FromTable(out, *c.Encoding); err != nil {
			return nil, nil, err
		}
	}
	data, err := colfmt.EncodeCompressed(ct)
	return ct, data, err
}

// release frees a flagged output when both §III-C conditions hold: all
// dependents done and the background materialization finished. Callers hold
// st.mu.
func (rs *runState) release(id dag.NodeID, st *flaggedState) {
	if st.children == 0 && st.written && !st.released {
		st.released = true
		rs.evict(id, obs.EvictRelease)
	}
}

// awaitWrites waits out the background writes of the flagged outputs that
// wait on nothing else to leave the Memory Catalog — every dependent has
// executed, only the write is outstanding — so a node whose Put did not fit
// gets their bytes back instead of falling back to a foreground write just
// because a writer goroutine has not been scheduled yet. It reports whether
// it waited on any; cancellation stops the wait.
func (rs *runState) awaitWrites(ctx context.Context) bool {
	var wait []chan struct{}
	rs.writingMu.Lock()
	pending := rs.writing[:0]
	for _, st := range rs.writing {
		st.mu.Lock()
		if !st.written {
			pending = append(pending, st)
			if st.children == 0 {
				wait = append(wait, st.writeDone)
			}
		}
		st.mu.Unlock()
	}
	rs.writing = pending
	rs.writingMu.Unlock()
	if len(wait) == 0 {
		return false
	}
	if rs.c.awaitHook != nil {
		rs.c.awaitHook()
	}
	for _, done := range wait {
		select {
		case <-done:
		case <-ctx.Done():
			return false
		}
	}
	return true
}

// evict deletes a node's output from the Memory Catalog and reports why it
// left.
func (rs *runState) evict(id dag.NodeID, reason string) {
	name := rs.g.Name(id)
	// Size, not Get: eviction must not pay a decompression.
	if size, err := rs.c.Mem.Size(name); err == nil {
		_ = rs.c.Mem.Delete(name)
		rs.evictions.Add(1)
		obs.Emit(rs.c.Obs, obs.Event{Kind: obs.Evicted, Node: name, Step: rs.pos[id], Bytes: size, Reason: reason})
	}
}

// noteHighWater emits MemoryHighWater when the catalog peak grows.
func (rs *runState) noteHighWater() {
	peak := rs.c.Mem.Peak()
	for {
		seen := rs.peakSeen.Load()
		if peak <= seen {
			return
		}
		if rs.peakSeen.CompareAndSwap(seen, peak) {
			obs.Emit(rs.c.Obs, obs.Event{Kind: obs.MemoryHighWater, Step: -1, Bytes: peak})
			return
		}
	}
}

// tableObject maps a table name to its storage object name.
func tableObject(name string) string { return name + ".sct" }

// TableSize returns the encoded size of a stored table — the bytes a
// refresh actually moves when reading it from external storage.
func TableSize(st storage.Store, name string) (int64, error) {
	return st.Size(tableObject(name))
}

// LoadTable reads and decodes a table from storage.
func LoadTable(st storage.Store, name string) (*table.Table, error) {
	return LoadTableHead(st, name, 0)
}

// LoadTableHead is LoadTable for a reader of the table's first n rows: it
// decodes no more of a chunked file than those need (colfmt.DecodeHead).
func LoadTableHead(st storage.Store, name string, n int) (*table.Table, error) {
	data, err := st.Read(tableObject(name))
	if err != nil {
		return nil, err
	}
	return colfmt.DecodeHead(data, n)
}

// SaveTable encodes and writes a table to storage in the v1 format.
func SaveTable(st storage.Store, name string, t *table.Table) error {
	data, err := colfmt.Encode(t)
	if err != nil {
		return err
	}
	return st.Write(tableObject(name), data)
}

// SaveTableChunked compresses and writes a table to storage in the
// chunked format, which the kernels' per-chunk readers can scan without a
// whole-table decode.
func SaveTableChunked(st storage.Store, name string, t *table.Table, opts encoding.Options) error {
	data, err := colfmt.EncodeTable(t, opts)
	if err != nil {
		return err
	}
	return st.Write(tableObject(name), data)
}

// nodeInputs is where one executing node's inputs resolve. A node opens
// each input once into an input handle: the Memory Catalog's entry when the
// table is resident there, else its storage object with one Store.Read.
// Planning (schema), a kernel (chunk view) and the row engine (rows) each
// take their view off that handle, however many of them ask and however
// often, so a node reads each object once and decodes each input at most
// once. A resident entry that does not decode counts as a miss: the stored
// object stands in for it. Handles are per node, never shared across nodes,
// which keeps the run's byte counts exact at any concurrency. A node plans
// and executes on one goroutine, so none of this needs locking.
type nodeInputs struct {
	c        *Controller
	node     string // the executing node
	step     int
	decoded  *atomic.Int64 // the run's DecodedBytes
	objs     map[string]*input
	scans    map[string]int // the plan's scans of each table not yet handed their rows
	reads    int            // Store.Read calls that returned an object
	memReads int            // rows or chunks served by the Memory Catalog
	readTime time.Duration  // fetching and resolving inputs, planning included
}

// input is the handle on one input, in the form it came in: a plain entry's
// rows, a serialized entry's v1 bytes, a compressed entry's chunks, or a
// storage object's bytes (v1 or chunked). Each derived form is built at most
// once; the bytes and chunks go as soon as the rows exist.
type input struct {
	entry memcat.Entry         // the resident entry, nil for a storage object
	data  []byte               // v1 or chunked bytes; nil once tbl is decoded
	ct    *encoding.Compressed // the chunks: a compressed entry, or chunked data parsed
	ctErr error                // why chunked data did not parse
	tbl   *table.Table
}

// compressed returns the handle's chunk view, parsing chunked bytes once;
// it returns nil, nil for rows, v1 bytes and once the rows are decoded.
func (o *input) compressed() (*encoding.Compressed, error) {
	if o.ct == nil && o.ctErr == nil && colfmt.IsChunked(o.data) {
		o.ct, o.ctErr = colfmt.DecodeCompressed(o.data)
	}
	return o.ct, o.ctErr
}

// schema reads the input's schema off the handle, decoding no rows: the
// rows' or the chunks' own, else the v1 bytes' headers.
func (o *input) schema() (table.Schema, error) {
	if o.tbl != nil {
		return o.tbl.Schema, nil
	}
	ct, err := o.compressed()
	if ct != nil {
		return ct.Schema, nil
	}
	if err != nil {
		return table.Schema{}, err
	}
	sch, _, err := colfmt.DecodeSchema(o.data)
	return sch, err
}

// timed charges the time since t0 to the node's ReadTime.
func (in *nodeInputs) timed(t0 time.Time) { in.readTime += time.Since(t0) }

// open returns the table's handle, opening it on first use: the resident
// entry when there is one, else the storage object.
func (in *nodeInputs) open(name string) (*input, error) {
	if o := in.objs[name]; o != nil {
		return o, nil
	}
	if in.c.Mem != nil {
		if e, ok := in.c.Mem.GetEntry(name); ok {
			o := &input{entry: e}
			switch e := e.(type) {
			case *encoding.Compressed:
				o.ct = e
			case memcat.SerializedEntry:
				o.data = e.Data
			default:
				// A plain entry's rows are the table itself. An entry that
				// fails here leaves the handle empty, and so reads as a miss.
				o.tbl, _ = e.Table()
			}
			in.objs[name] = o
			return o, nil
		}
	}
	return in.fetch(name)
}

// fetch opens the table's storage object with one Store.Read, in place of
// any handle the node holds on the table.
func (in *nodeInputs) fetch(name string) (*input, error) {
	data, err := in.c.Store.Read(tableObject(name))
	if err != nil {
		return nil, err
	}
	in.reads++
	o := &input{data: data}
	in.objs[name] = o
	return o, nil
}

// view opens the table's handle and runs f on it. A resident entry f cannot
// decode counts as a miss: the storage object stands in for it, and f runs
// again on that.
func (in *nodeInputs) view(name string, f func(*input) error) (*input, error) {
	o, err := in.open(name)
	if err != nil {
		return nil, err
	}
	if err = f(o); err != nil && o.entry != nil {
		if o, err = in.fetch(name); err != nil {
			return nil, err
		}
		err = f(o)
	}
	if err != nil {
		return nil, fmt.Errorf("decode %q: %w", name, err)
	}
	return o, nil
}

// TableSchema implements sql.Catalog for this node's plan: the schema off
// the input's handle, whose entry or bytes then also serve the node's scan
// of it.
func (in *nodeInputs) TableSchema(name string) (sch table.Schema, err error) {
	defer in.timed(time.Now())
	_, err = in.view(name, func(o *input) (err error) {
		sch, err = o.schema()
		return err
	})
	return sch, err
}

// chunks returns the input's chunk view without decompressing anything. It
// returns nil when there is none to give — rows (a plain entry: the row path
// is cheaper), v1 bytes, a read error, a corrupt file, or rows already
// decoded — which sends a kernel to its row-engine fallback; that resolves
// through table and surfaces any error itself.
func (in *nodeInputs) chunks(name string) *encoding.Compressed {
	o, err := in.open(name)
	if err != nil {
		return nil
	}
	ct, _ := o.compressed()
	if ct != nil && o.entry != nil {
		in.memReads++
		in.emitHit(name, ct.RawBytes)
	}
	return ct
}

// table returns the input's rows. The last of the plan's scans of an input
// lets go of its handle: from there the operators own the rows, so a join's
// inputs can be collected while the rest of the plan still runs.
func (in *nodeInputs) table(name string) (*table.Table, error) {
	o, err := in.view(name, func(o *input) error { return in.rows(name, o) })
	if err != nil {
		return nil, err
	}
	if o.entry != nil {
		in.memReads++
	}
	if in.scans[name]--; in.scans[name] <= 0 {
		delete(in.objs, name)
	}
	return o.tbl, nil
}

// rows decodes the handle's bytes or chunks into its rows on the first call.
// A decode of a compact form — chunks, or a resident entry's bytes — is
// reported, so observers account decoded bytes wherever the input came
// from; a full decode of a chunked file is the cost the kernels' per-chunk
// readers exist to avoid. Rows a resident input already has are reported as
// a hit, so the consuming span can link to the producing one.
func (in *nodeInputs) rows(name string, o *input) error {
	if o.tbl != nil {
		if o.entry != nil {
			in.emitHit(name, o.tbl.ByteSize())
		}
		return nil
	}
	d0, encoded := time.Now(), int64(len(o.data))
	if o.entry != nil {
		encoded = o.entry.SizeBytes()
	}
	ct, err := o.compressed()
	if ct != nil {
		o.tbl, err = ct.Table()
	} else if err == nil {
		o.tbl, err = colfmt.Decode(o.data)
	}
	if err != nil {
		return err
	}
	o.data, o.ct = nil, nil
	if ct != nil || o.entry != nil {
		in.emitDecode(name, o.tbl.ByteSize(), encoded, d0)
	}
	return nil
}

// emitHit reports an input served by the Memory Catalog with no decode.
func (in *nodeInputs) emitHit(name string, bytes int64) {
	obs.Emit(in.c.Obs, obs.Event{Kind: obs.CacheHit, Node: in.node, Source: name, Step: in.step, Bytes: bytes})
}

// emitDecode reports a whole-table decode of a compact input that began at
// d0.
func (in *nodeInputs) emitDecode(name string, decoded, encoded int64, d0 time.Time) {
	in.decoded.Add(decoded)
	ratio := 1.0
	if encoded > 0 {
		ratio = float64(decoded) / float64(encoded)
	}
	obs.Emit(in.c.Obs, obs.Event{
		Kind: obs.DecodeDone, Node: name, Step: in.step,
		Bytes: decoded, Encoded: encoded,
		Ratio: ratio, Elapsed: time.Since(d0),
	})
}
