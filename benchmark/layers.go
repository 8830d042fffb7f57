package main

import (
	"context"
	"fmt"
	"os"
	"syscall"

	sc "github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/colfmt"
	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/kernels"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/opt"
	"github.com/shortcircuit-db/sc/internal/sched"
	"github.com/shortcircuit-db/sc/internal/sim"
	"github.com/shortcircuit-db/sc/internal/sql"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/tpcds"
	"github.com/shortcircuit-db/sc/internal/wlgen"
)

// replayRepeats is how often a sub-millisecond replay repeats; its metric
// is the median.
const replayRepeats = 15

// replayLayers calls each layer's exported functions, single-threaded, on
// the workload's real base tables and MV outputs, one span per call, and
// sets the per-layer metrics that come from a layer alone.
func replayLayers(ctx context.Context, base map[string]*table.Table, mvs sc.Store, rec *recorder, res *result, ops *tally, o options) error {
	tables := make(map[string]*table.Table, len(base)+len(pipeline))
	for name, t := range base {
		tables[name] = t
	}
	var mvNames []string
	for _, mv := range pipeline {
		t, err := sc.LoadTable(mvs, mv.Name)
		if ops.op(err) {
			return fmt.Errorf("replay: load %s: %w", mv.Name, err)
		}
		tables[mv.Name] = t
		mvNames = append(mvNames, mv.Name)
	}
	// layer times f as one span of a layer replay.
	layer := func(name string, f func() error) (float64, error) {
		d, err := rec.time(name, -1, -1, f)
		if ops.op(err) {
			return 0, fmt.Errorf("replay %s: %w", name, err)
		}
		return seconds(d), nil
	}
	// repeated is layer, replayRepeats times, for calls too short to time once.
	repeated := func(name string, f func() error) ([]float64, error) {
		var xs []float64
		for i := 0; i < replayRepeats; i++ {
			x, err := layer(name, f)
			if err != nil {
				return nil, err
			}
			xs = append(xs, x)
		}
		return xs, nil
	}
	scale := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}

	// sql, dag: plan all 12 statements against the real schemas; build
	// the dependency graph from the SQL.
	catalog := sql.CatalogFunc(func(name string) (table.Schema, error) {
		t, ok := tables[name]
		if !ok {
			return table.Schema{}, fmt.Errorf("no table %q", name)
		}
		return t.Schema, nil
	})
	plans := make([]engine.Node, len(pipeline))
	xs, err := repeated("sql.plan", func() error {
		for i, mv := range pipeline {
			p, _, err := sql.PlanString(mv.SQL, catalog)
			if err != nil {
				return err
			}
			plans[i] = p
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("sql.plan_ms", scale(xs, 1e3)...)
	if xs, err = repeated("dag.build", func() error {
		_, _, err := tpcds.RealWorkload().BuildGraph()
		return err
	}); err != nil {
		return err
	}
	res.set("dag.build_ms", scale(xs, 1e3)...)

	// engine, table: every MV plan on in-memory tables, row path.
	var rowsIn int64
	rowCtx := &engine.Context{Resolve: func(name string) (*table.Table, error) {
		t, ok := tables[name]
		if !ok {
			return nil, fmt.Errorf("no table %q", name)
		}
		rowsIn += int64(t.NumRows())
		return t, nil
	}}
	runPlans := func(plans []engine.Node, ectx *engine.Context) error {
		for i, p := range plans {
			out, err := p.Run(ectx)
			if err != nil {
				return fmt.Errorf("%s: %w", pipeline[i].Name, err)
			}
			if !tablesEqual(out, tables[pipeline[i].Name]) {
				return fmt.Errorf("%s: replay output differs from the stored MV", pipeline[i].Name)
			}
		}
		return nil
	}
	engineS, err := layer("engine.run", func() error { return runPlans(plans, rowCtx) })
	if err != nil {
		return err
	}
	res.set("engine.compute_s", engineS)
	res.set("engine.rows_per_s", ratio(float64(rowsIn), engineS))

	// colfmt v1 and encoding: every table through each codec path.
	var rawBytes, compBytes, chunkedBytes float64
	var encS, decS, compS, expS, chunkEncS, chunkOpenS float64
	compressed := make(map[string]*encoding.Compressed, len(tables))
	for name, t := range tables {
		rawBytes += float64(t.ByteSize())
		var data []byte
		d, err := layer("colfmt.encode", func() (err error) { data, err = colfmt.Encode(t); return })
		if err != nil {
			return err
		}
		encS += d
		if d, err = layer("colfmt.decode", func() error { _, err := colfmt.Decode(data); return err }); err != nil {
			return err
		}
		decS += d

		var ct *encoding.Compressed
		if d, err = layer("encoding.compress", func() (err error) {
			ct, err = encoding.FromTable(t, encoding.Options{})
			return
		}); err != nil {
			return err
		}
		compS += d
		compressed[name] = ct
		compBytes += float64(ct.SizeBytes())
		if d, err = layer("encoding.decode", func() error { _, err := ct.Table(); return err }); err != nil {
			return err
		}
		expS += d

		if d, err = layer("colfmt.chunked_encode", func() (err error) {
			data, err = colfmt.EncodeCompressed(ct)
			return
		}); err != nil {
			return err
		}
		chunkEncS += d
		chunkedBytes += float64(len(data))
		if d, err = layer("colfmt.chunked_open", func() error {
			_, err := colfmt.DecodeCompressed(data)
			return err
		}); err != nil {
			return err
		}
		chunkOpenS += d
	}
	res.set("colfmt.encode_mb_s", ratio(rawBytes/mb, encS))
	res.set("colfmt.decode_mb_s", ratio(rawBytes/mb, decS))
	res.set("encoding.compress_mb_s", ratio(rawBytes/mb, compS))
	res.set("encoding.decode_mb_s", ratio(rawBytes/mb, expS))
	res.set("encoding.ratio", ratio(rawBytes, compBytes))
	res.set("colfmt.chunked_encode_mb_s", ratio(chunkedBytes/mb, chunkEncS))
	res.set("colfmt.chunked_open_mb_s", ratio(chunkedBytes/mb, chunkOpenS))

	// kernels, chunkio, sched: the same plans lowered onto kernels over
	// compressed inputs, serial, then with two tokens.
	var kst kernels.Stats
	lowered := make([]engine.Node, len(plans))
	for i, p := range plans {
		lowered[i] = kernels.Lower(p, &kst)
	}
	kctx := func(tokens *sched.Scheduler) *engine.Context {
		return &engine.Context{
			Resolve: rowCtx.Resolve,
			ResolveCompressed: func(name string) (*encoding.Compressed, error) {
				return compressed[name], nil
			},
			Sched: tokens, ParallelScan: tokens != nil,
		}
	}
	serialS, err := layer("kernels.run", func() error { return runPlans(lowered, kctx(nil)) })
	if err != nil {
		return err
	}
	serialStats := kst
	parallelS, err := layer("kernels.run_parallel", func() error { return runPlans(lowered, kctx(sched.New(2, 0))) })
	if err != nil {
		return err
	}
	res.set("kernels.compute_s", serialS)
	res.set("kernels.parallel_x", ratio(serialS, parallelS))
	res.set("kernels.lowered_ops", float64(serialStats.Lowered))
	res.set("kernels.fallbacks", float64(serialStats.Fallbacks))
	res.set("kernels.decodes_avoided", float64(serialStats.DecodesAvoided))

	tokens := sched.New(2, 0)
	const acquires = 100000
	acquireS, err := layer("sched.acquire", func() error {
		for i := 0; i < acquires; i++ {
			tokens.Acquire()
			tokens.Release()
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("sched.acquire_ns", 1e9*acquireS/acquires)

	// memcat: Put + Get + Delete of each MV in an unbounded catalog.
	cat := memcat.New(1 << 40)
	var putGet []float64
	for i := 0; i < replayRepeats; i++ {
		for _, name := range mvNames {
			d, err := layer("memcat.put_get", func() error {
				if err := cat.Put(name, tables[name]); err != nil {
					return err
				}
				if _, ok := cat.Get(name); !ok {
					return fmt.Errorf("%s not resident after Put", name)
				}
				return cat.Delete(name)
			})
			if err != nil {
				return err
			}
			putGet = append(putGet, 1e6*d)
		}
	}
	res.set("memcat.put_get_us", putGet...)

	// storage: the MV objects through FSStore (fsync per write) in a
	// directory of this checkout. The sandbox's disk, not a device's.
	if err := replayFSStore(mvs, mvNames, o.scratch, layer, res); err != nil {
		return err
	}
	if err := replayOptimizer(ctx, o.seed, layer, res, ops); err != nil {
		return err
	}
	return replaySimulator(ctx, layer, res)
}

type layerFunc func(name string, f func() error) (float64, error)

func replayFSStore(mvs sc.Store, mvNames []string, scratch string, layer layerFunc, res *result) error {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "fsstore-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := storage.NewFSStore(dir)
	if err != nil {
		return err
	}
	var bytes, writeS, readS float64
	for _, name := range mvNames {
		object := name + ".sct"
		data, err := mvs.Read(object)
		if err != nil {
			return err
		}
		bytes += float64(len(data))
		d, err := layer("storage.fs_write", func() error { return fs.Write(object, data) })
		if err != nil {
			return err
		}
		writeS += d
		if d, err = layer("storage.fs_read", func() error { _, err := fs.Read(object); return err }); err != nil {
			return err
		}
		readS += d
	}
	res.set("storage.fs_write_mb_s", ratio(bytes/mb, writeS))
	res.set("storage.fs_read_mb_s", ratio(bytes/mb, readS))
	return nil
}

// replayOptimizer solves a seeded 200-node generated DAG (the scale of the
// paper's Fig. 13) and checks the plan against the budget it was given.
func replayOptimizer(ctx context.Context, seed int64, layer layerFunc, res *result, ops *tally) error {
	gen, err := wlgen.Generate(wlgen.Params{Nodes: 200, Seed: seed})
	if err != nil {
		return err
	}
	prob := gen.Problem(2<<30, costmodel.PaperProfile())
	var plan *core.Plan
	solveS, err := layer("opt.solve_n200", func() (err error) {
		plan, _, err = opt.Solve(ctx, prob, opt.Options{})
		return
	})
	if err != nil {
		return err
	}
	if peak := core.PeakMemoryUsage(prob, plan); peak > prob.Memory {
		err = fmt.Errorf("oracle: 200-node plan peaks at %d bytes, budget %d", peak, prob.Memory)
	}
	ops.op(err)
	res.set("opt.solve_n200_ms", 1e3*solveS)
	return nil
}

// replaySimulator reruns the paper's §VI headline on the calibrated
// simulator: 100 GB TPC-DS, 1.6 % Memory Catalog, S/C plan over no
// optimization. The speedups are exact and track fidelity to the paper
// (I/O 1 1.50x, I/O 2 1.81x, Compute 1 1.01x at the seed commit).
func replaySimulator(ctx context.Context, layer layerFunc, res *result) error {
	d := costmodel.PaperProfile()
	scale := tpcds.ScaleBytes(100)
	mem := tpcds.MemoryForFraction(scale, 0.016)
	var runMS []float64
	for _, w := range []struct {
		name   tpcds.WorkloadName
		metric string
	}{
		{tpcds.IO1, "sim.io1_speedup_x"},
		{tpcds.IO2, "sim.io2_speedup_x"},
		{tpcds.Compute1, "sim.compute1_speedup_x"},
	} {
		wl, prob, err := tpcds.Build(w.name, scale, tpcds.Regular(), mem, d)
		if err != nil {
			return err
		}
		topo, err := prob.G.TopoSort()
		if err != nil {
			return err
		}
		plan, _, err := opt.Solve(ctx, prob, opt.Options{})
		if err != nil {
			return err
		}
		var base, ours *sim.Result
		cfg := sim.Config{Device: d, Memory: mem}
		s, err := layer("sim.run", func() (err error) {
			base, err = sim.Run(ctx, wl, core.NewPlan(topo), cfg)
			return
		})
		if err != nil {
			return err
		}
		runMS = append(runMS, 1e3*s)
		if s, err = layer("sim.run", func() (err error) {
			ours, err = sim.Run(ctx, wl, plan, cfg)
			return
		}); err != nil {
			return err
		}
		runMS = append(runMS, 1e3*s)
		res.set(w.metric, ours.Speedup(base))
	}
	res.set("sim.run_ms", runMS...)
	return nil
}

// peakRSSMB is the process's resident-set high-water mark (ru_maxrss,
// which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / mb
}
