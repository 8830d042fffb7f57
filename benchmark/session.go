package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	sc "github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

// The modelled device of the io-bound workload: the repo's NFS-like
// profile (internal/bench.DefaultRealConfig). storage.Throttled sleeps for
// size/bandwidth + latency, so this time is modelled, not measured.
const (
	deviceReadBW  = 60e6
	deviceWriteBW = 40e6
	deviceLatency = 2 * time.Millisecond
)

// sessionCfg is everything that distinguishes one workload's refresh
// sessions from another's.
type sessionCfg struct {
	sf          float64
	throttled   bool    // modelled device under the store, WithDevice to match
	concurrency int     // WithConcurrency
	memFrac     float64 // Memory Catalog budget as a share of base-table bytes
	compressed  bool    // chunked base tables, encoding, kernels
	parallel    bool    // WithParallelScan: kernels split a scan across free tokens
}

// pipeline is the 12-MV profit pipeline every workload refreshes.
var pipeline = func() []sc.MV {
	var mvs []sc.MV
	for _, n := range tpcds.RealWorkload().Nodes {
		mvs = append(mvs, sc.MV{Name: n.Name, SQL: n.SQL})
	}
	return mvs
}()

func isMVObject(object string) bool {
	name := strings.TrimSuffix(object, ".sct")
	return slices.ContainsFunc(pipeline, func(mv sc.MV) bool { return mv.Name == name })
}

// readMV is the MV every workload's point reads fetch: the largest output
// of the pipeline, so the read pays a real decode.
const readMV = "ss_1999"

// session is one sc.Refresher over its own store.
type session struct {
	ref    *sc.Refresher
	mem    *storage.MemStore // the bytes, for the oracle (never throttled)
	store  *meteredStore     // what the Refresher sees
	budget int64
}

// newSession saves the base tables into a fresh store and opens a
// Refresher on it with the workload's options, then any extra ones.
func newSession(tables map[string]*table.Table, cfg sessionCfg, budget int64, rec *recorder, extra ...sc.Option) (*session, error) {
	mem := sc.NewMemStore()
	for name, t := range tables {
		var err error
		if cfg.compressed {
			err = sc.SaveTableChunked(mem, name, t, sc.EncodingOptions{})
		} else {
			err = sc.SaveTable(mem, name, t)
		}
		if err != nil {
			return nil, fmt.Errorf("save %s: %w", name, err)
		}
	}
	opts := []sc.Option{sc.WithMemory(budget), sc.WithConcurrency(cfg.concurrency)}
	var inner sc.Store = mem
	if cfg.throttled {
		inner = sc.NewThrottledStore(mem, deviceReadBW, deviceWriteBW, deviceLatency)
		opts = append(opts, sc.WithDevice(sc.DeviceProfile{
			DiskReadBW: deviceReadBW, DiskWriteBW: deviceWriteBW, DiskLatency: deviceLatency,
			MemReadBW: 10e9, MemWriteBW: 10e9, ComputeScale: 1,
		}))
	}
	if cfg.compressed {
		opts = append(opts,
			sc.WithEncoding(sc.EncodingOptions{}),
			sc.WithVectorized(true), // session dictionary cache rides along
		)
	}
	if cfg.parallel {
		opts = append(opts, sc.WithParallelScan(true))
	}
	store := &meteredStore{inner: inner, isMV: isMVObject, rec: rec}
	ref, err := sc.New(pipeline, store, append(opts, extra...)...)
	if err != nil {
		return nil, err
	}
	return &session{ref: ref, mem: mem, store: store, budget: budget}, nil
}

// refresh times one Refresher.Refresh: run every MV to durable, then
// re-optimize from what the run observed.
func (s *session) refresh(ctx context.Context) (time.Duration, *sc.RunResult, error) {
	t0 := time.Now()
	res, err := s.ref.Refresh(ctx)
	return time.Since(t0), res, err
}

// batchEnv is a batch workload after set-up: the S/C session, warmed up
// and optimized, and the naive session (same options, WithMemory(0)).
type batchEnv struct {
	cfg       sessionCfg
	tables    map[string]*table.Table
	baseBytes int64
	sc, naive *session
}

// setupBatch is what setup_s measures: generate, save the base tables for
// both sessions, open them, and run the S/C session's metadata-collecting
// refresh and one optimized warm-up refresh.
func setupBatch(ctx context.Context, cfg sessionCfg, seed int64, rec *recorder, ops *tally) (*batchEnv, error) {
	ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: cfg.sf, Seed: seed})
	if err != nil {
		return nil, err
	}
	env := &batchEnv{cfg: cfg, tables: ds.Tables, baseBytes: ds.TotalBytes()}
	budget := int64(cfg.memFrac * float64(env.baseBytes))
	if env.sc, err = newSession(ds.Tables, cfg, budget, rec); err != nil {
		return nil, err
	}
	if env.naive, err = newSession(ds.Tables, cfg, 0, nil); err != nil {
		return nil, err
	}
	if err := env.sc.warmUp(ctx, ops); err != nil {
		return nil, err
	}
	return env, nil
}

// warmUp runs the session's unoptimized, metadata-collecting refresh and
// one optimized refresh, so that what is timed afterwards is the steady
// state.
func (s *session) warmUp(ctx context.Context, ops *tally) error {
	for i := 0; i < 2; i++ {
		if _, _, err := s.refresh(ctx); ops.op(err) {
			return fmt.Errorf("warm-up refresh: %w", err)
		}
	}
	return nil
}

// tally counts operations attempted and failed: refreshes, reads, HTTP
// calls and oracle checks alike.
type tally struct {
	attempted, failed int
	firstErr          error
}

// op records one operation and reports whether it failed.
func (t *tally) op(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
	return err != nil
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// tablesEqual reports whether a and b hold the same rows in the same
// order; floats compare by bit pattern, so NaN equals NaN.
func tablesEqual(a, b *table.Table) bool {
	if !a.Schema.Equal(b.Schema) || a.NumRows() != b.NumRows() {
		return false
	}
	for i, va := range a.Cols {
		vb := b.Cols[i]
		if !slices.Equal(va.Ints, vb.Ints) || !slices.Equal(va.Strs, vb.Strs) ||
			!slices.EqualFunc(va.Floats, vb.Floats, func(x, y float64) bool {
				return math.Float64bits(x) == math.Float64bits(y)
			}) {
			return false
		}
	}
	return true
}

// checkMVs is the output oracle: every MV in got must equal, row for row,
// the one in want. Each MV is one operation.
func checkMVs(got, want sc.Store, what string, ops *tally) {
	for _, mv := range pipeline {
		g, err := sc.LoadTable(got, mv.Name)
		if err == nil {
			var w *table.Table
			if w, err = sc.LoadTable(want, mv.Name); err == nil && !tablesEqual(g, w) {
				err = fmt.Errorf("rows differ")
			}
		}
		if err != nil {
			err = fmt.Errorf("oracle: %s: MV %s: %w", what, mv.Name, err)
		}
		ops.op(err)
	}
}

// referenceStore runs the pipeline once on the default row path with
// nothing kept in memory and returns the store holding its MVs: the
// reference the compressed path and the gateway are checked against.
func referenceStore(ctx context.Context, tables map[string]*table.Table, ops *tally) (*session, error) {
	s, err := newSession(tables, sessionCfg{concurrency: 1}, 0, nil)
	if err != nil {
		return nil, err
	}
	if _, _, err := s.refresh(ctx); ops.op(err) {
		return nil, fmt.Errorf("reference refresh: %w", err)
	}
	return s, nil
}
