package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	sc "github.com/shortcircuit-db/sc"
)

// batchWorkloads are the three closed-loop, one-client workloads. See
// README.md for why each exists; the numbers in the comments are this
// machine's at seed 42.
var batchWorkloads = map[string]sessionCfg{
	// Modelled storage time is more than half of wall, so the optimizer,
	// the catalog and the background writes do the work. 20 % is a binding
	// budget: the largest SPJ intermediate does not fit.
	"io-bound": {sf: 25, throttled: true, concurrency: 1, memFrac: 0.20},
	// What sc.New gives a quick-start user; the engine is ~85 % of wall.
	"cpu-bound": {sf: 100, concurrency: 2, memFrac: 0.20},
	// Same data, DAG, budget and tokens as cpu-bound: the difference is
	// encoding + kernels + chunkio + sched.
	"compressed": {sf: 100, concurrency: 2, memFrac: 0.20, compressed: true, parallel: true},
}

// setupRepeats is how often set-up runs in the untraced pass, once before
// the timed window and the rest after it; setup_s is the median, because
// allocation and first touch make a single one noisy.
const setupRepeats = 3

// readsPerPair MV reads follow each timed pair of a batch workload.
const readsPerPair = 4

// tracedPairs is how many refreshes of each kind the traced pass times.
const tracedPairs = 3

const mb = 1e6

// runBatch is the untraced pass of a batch workload: set up, then timed
// pairs of {S/C refresh, naive refresh} in alternating order, one at a
// time, with MV reads after each pair, then the output oracle.
func runBatch(ctx context.Context, name string, cfg sessionCfg, o options) (*result, error) {
	res := newResult(name, o, cfg.sf)
	ops := &tally{}

	var setups []float64
	setup := func() (*batchEnv, error) {
		runtime.GC()
		t0 := time.Now()
		env, err := setupBatch(ctx, cfg, o.seed, nil, ops)
		setups = append(setups, seconds(time.Since(t0)))
		return env, err
	}
	env, err := setup()
	if err != nil {
		return nil, err
	}

	var scWall, naiveWall, speedup, reads, readMB, writtenMB []float64
	// Every timed operation of a batch workload starts from a collected
	// heap, as it would in a pipeline that runs one refresh a night: the
	// garbage of the benchmark's previous operation is not its cost.
	scOnce := func() bool {
		runtime.GC()
		before := env.sc.store.snapshot()
		d, r, err := env.sc.refresh(ctx)
		if ops.op(err) {
			return false
		}
		moved := env.sc.store.snapshot().sub(before)
		scWall = append(scWall, seconds(d))
		readMB = append(readMB, float64(moved.readBytes)/mb)
		writtenMB = append(writtenMB, float64(moved.writeBytes)/mb)
		// Staying within the Memory Catalog budget, the paper's bound, is
		// an operation of its own: an overrun fails the run.
		var overrun error
		if r.PeakMemory > env.sc.budget {
			overrun = fmt.Errorf("refresh peaked at %d bytes of Memory Catalog, budget %d", r.PeakMemory, env.sc.budget)
		}
		ops.op(overrun)
		return true
	}
	naiveOnce := func() bool {
		runtime.GC()
		d, _, err := env.naive.refresh(ctx)
		if ops.op(err) {
			return false
		}
		naiveWall = append(naiveWall, seconds(d))
		return true
	}
	start := time.Now()
	for pair, done := 0, until(o.reps, minPairs, o.seconds); !done(pair, start); pair++ {
		first, second := scOnce, naiveOnce
		if pair%2 == 1 {
			first, second = naiveOnce, scOnce
		}
		if first() && second() {
			// The two halves of a pair run back to back, so the host's
			// slow stretches hit both and cancel in the ratio.
			speedup = append(speedup, naiveWall[len(naiveWall)-1]/scWall[len(scWall)-1])
		}
		// MV reads follow every pair, not the window: the host's memory
		// speed wanders over seconds, and reads bunched into one moment
		// would all see the same stretch of it.
		runtime.GC()
		for i := 0; i < readsPerPair; i++ {
			t0 := time.Now()
			_, err := sc.LoadTable(env.sc.store, readMV)
			if !ops.op(err) {
				reads = append(reads, 1e3*seconds(time.Since(t0)))
			}
		}
		res.Reps = pair + 1
	}
	if len(speedup) == 0 || len(reads) == 0 {
		return nil, fmt.Errorf("%s: no refresh or no read succeeded: %v", name, ops.firstErr)
	}

	if err := batchOracle(ctx, env, ops); err != nil {
		return nil, err
	}
	// The remaining set-ups run after the window, not back to back with
	// the first, so that one stall of the host cannot land in all of them.
	env = nil
	for i := 1; i < setupRepeats && !o.quick; i++ {
		if _, err := setup(); err != nil {
			return nil, err
		}
	}

	res.set("setup_s", setups...)
	res.set("refresh_wall_s", scWall...)
	res.set("naive_wall_s", naiveWall...)
	res.set("speedup_x", speedup...)
	res.set("mv_read_ms", reads...)
	res.set("storage_read_mb", readMB...)
	res.set("storage_written_mb", writtenMB...)
	res.finish(ops)
	return res, nil
}

// batchOracle checks the S/C session's MVs against the naive session's;
// on the compressed workload both are checked against a row-path run.
func batchOracle(ctx context.Context, env *batchEnv, ops *tally) error {
	if !env.cfg.compressed {
		checkMVs(env.sc.mem, env.naive.mem, "S/C vs naive", ops)
		return nil
	}
	ref, err := referenceStore(ctx, env.tables, ops)
	if err != nil {
		return err
	}
	checkMVs(env.sc.mem, ref.mem, "compressed S/C vs row path", ops)
	checkMVs(env.naive.mem, ref.mem, "compressed naive vs row path", ops)
	return nil
}

// tracedRun is what one traced refresh of a session yields.
type tracedRun struct {
	wall, run, optimize time.Duration
	res                 *sc.RunResult
	stats               *sc.Stats
	moved               counters
	readTime, writeTime time.Duration
	allocBytes, gcPause uint64
}

// tracedRefresh does what Refresher.Refresh does, Run then Optimize, as
// two calls with a span around each, the store recording a span per call.
func tracedRefresh(ctx context.Context, s *session, rec *recorder, run int) (tracedRun, error) {
	var tr tracedRun
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := s.store.snapshot()
	root := rec.begin("refresh", -1, run)
	t0 := time.Now()

	id := rec.begin("exec.run", root, run)
	s.store.trace(id, run)
	t1 := time.Now()
	var err error
	tr.res, err = s.ref.Run(ctx)
	tr.run = time.Since(t1)
	s.store.untrace()
	rec.end(id)
	if err == nil {
		tr.optimize, err = rec.time("opt.optimize", root, run, func() (err error) {
			_, tr.stats, err = s.ref.Optimize(ctx)
			return err
		})
	}
	tr.wall = time.Since(t0)
	rec.end(root)
	runtime.ReadMemStats(&m1)
	tr.moved = s.store.snapshot().sub(before)
	tr.readTime, _ = rec.total("storage.read", run)
	tr.writeTime, _ = rec.total("storage.write", run)
	tr.allocBytes, tr.gcPause = m1.TotalAlloc-m0.TotalAlloc, m1.PauseTotalNs-m0.PauseTotalNs
	return tr, err
}

// traceSession times tracedPairs triples of {untraced S/C, traced S/C,
// naive} refreshes and sets the per-layer metrics that come from a
// refresh: storage, memcat, exec, opt, chunkio, process, trace overhead.
func traceSession(ctx context.Context, s, naive *session, rec *recorder, res *result, ops *tally) error {
	var plain, traced, naiveWall, runS, optMS, readS, writeS, readOps, writeOps, mvReadMB, allocMB, gcMS []float64
	var last tracedRun
	overruns := 0
	for i := 0; i < tracedPairs; i++ {
		runtime.GC() // as in the untraced pass: each refresh from a collected heap
		d, _, err := s.refresh(ctx)
		if ops.op(err) {
			return err
		}
		plain = append(plain, seconds(d))

		runtime.GC()
		tr, err := tracedRefresh(ctx, s, rec, i)
		if ops.op(err) {
			return err
		}
		last = tr
		var overrun error
		if tr.res.PeakMemory > s.budget {
			overruns++
			overrun = fmt.Errorf("traced refresh peaked at %d bytes of Memory Catalog, budget %d", tr.res.PeakMemory, s.budget)
		}
		ops.op(overrun)
		traced = append(traced, seconds(tr.wall))
		runS = append(runS, seconds(tr.run))
		optMS = append(optMS, 1e3*seconds(tr.optimize))
		readS = append(readS, seconds(tr.readTime))
		writeS = append(writeS, seconds(tr.writeTime))
		readOps = append(readOps, float64(tr.moved.reads))
		writeOps = append(writeOps, float64(tr.moved.writes))
		mvReadMB = append(mvReadMB, float64(tr.moved.mvReadBytes)/mb)
		allocMB = append(allocMB, float64(tr.allocBytes)/mb)
		gcMS = append(gcMS, float64(tr.gcPause)/1e6)

		runtime.GC()
		d, _, err = naive.refresh(ctx)
		if ops.op(err) {
			return err
		}
		naiveWall = append(naiveWall, seconds(d))
	}

	res.set("storage.read_s", readS...)
	res.set("storage.write_s", writeS...)
	res.set("storage.read_ops", readOps...)
	res.set("storage.write_ops", writeOps...)
	res.set("storage.mv_read_mb", mvReadMB...)
	res.set("exec.run_s", runS...)
	res.set("opt.solve_ms", optMS...)
	res.set("process.alloc_mb_per_refresh", allocMB...)
	res.set("process.gc_pause_ms", gcMS...)
	res.set("trace.overhead_frac", median(traced)/median(plain)-1)

	// Counts of the last traced refresh: the plan has settled by then.
	flagged, memReads, mvInputs, dictReused := 0, 0, 0, int64(0)
	g := s.ref.Graph()
	for _, n := range last.res.Nodes {
		if n.Flagged {
			flagged++
		}
		memReads += n.MemReads
		dictReused += n.DictReused
	}
	for i := 0; i < g.Len(); i++ {
		mvInputs += len(g.Parents(sc.NodeID(i)))
	}
	res.set("memcat.flagged_nodes", float64(flagged))
	res.set("memcat.peak_frac", ratio(float64(last.res.PeakMemory), float64(s.budget)))
	res.set("memcat.hit_ratio", ratio(float64(memReads), float64(mvInputs)))
	res.set("memcat.catalog_overrun", float64(overruns))
	res.set("exec.fallback_writes", float64(last.res.FallbackWrites))
	res.set("chunkio.dict_reused", float64(dictReused))
	res.set("opt.iterations", float64(last.stats.Iterations))

	// The paper's headline: naive wall over S/C wall (base: naive).
	// Calibration is what the optimizer predicted it would save over what
	// was saved; 0 when nothing was.
	saved := median(naiveWall) - median(plain)
	res.set("opt.speedup_x", median(naiveWall)/median(plain))
	if saved > 0 {
		res.set("opt.calibration_ratio", last.stats.Score/saved)
	}
	return nil
}

// traceBatch is the traced pass of a batch workload.
func traceBatch(ctx context.Context, name string, cfg sessionCfg, o options) (*result, error) {
	res := newResult(name, o, cfg.sf)
	res.Reps = tracedPairs
	ops := &tally{}
	rec := newRecorder()
	env, err := setupBatch(ctx, cfg, o.seed, rec, ops)
	if err != nil {
		return nil, err
	}
	if err := traceSession(ctx, env.sc, env.naive, rec, res, ops); err != nil {
		return nil, err
	}
	if err := replayLayers(ctx, env.tables, env.sc.mem, rec, res, ops, o); err != nil {
		return nil, err
	}
	res.set("process.peak_rss_mb", peakRSSMB())
	res.Spans = rec.spans
	res.finish(ops)
	return res, nil
}
