package sc

import (
	"context"
	"time"

	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/sim"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
)

// MV declares one materialized view: a SQL statement whose result is
// materialized under Name. Supported SQL: SELECT-PROJECT-JOIN with
// GROUP BY/ORDER BY/LIMIT; inputs are other MVs (by name) or base tables
// on storage.
type MV struct {
	Name string
	SQL  string
}

// Store is the external-storage abstraction MVs materialize to.
type Store = storage.Store

// NewMemStore returns an in-process store for tests and examples.
func NewMemStore() *storage.MemStore { return storage.NewMemStore() }

// NewFSStore returns a filesystem-backed store rooted at dir.
func NewFSStore(dir string) (*storage.FSStore, error) { return storage.NewFSStore(dir) }

// NewThrottledStore wraps a store with a bandwidth/latency model so fast
// local disks reproduce storage-bound behaviour.
func NewThrottledStore(inner Store, readBW, writeBW float64, latency time.Duration) Store {
	return &storage.Throttled{Inner: inner, ReadBWBps: readBW, WriteBWBps: writeBW, Latency: latency}
}

// SaveTable writes a table to a store in S/C's columnar format.
func SaveTable(st Store, name string, t *table.Table) error {
	return exec.SaveTable(st, name, t)
}

// SaveTableChunked compresses and writes a table in the chunked columnar
// format. Base tables saved this way are scanned per chunk by encoded
// sessions' kernels (WithEncoding) instead of paying a whole-table decode,
// and feed the compressed intermediate pipeline without a fallback.
func SaveTableChunked(st Store, name string, t *table.Table, opts EncodingOptions) error {
	return exec.SaveTableChunked(st, name, t, opts)
}

// LoadTable reads a table written by SaveTable (or by a refresh run).
func LoadTable(st Store, name string) (*table.Table, error) {
	return exec.LoadTable(st, name)
}

// NodeMetrics is the per-node execution metadata of a run (§III-A).
type NodeMetrics = exec.NodeMetrics

// RunResult aggregates a refresh run.
type RunResult = exec.RunResult

// SimNode parameterizes one MV update for simulation.
type SimNode = sim.Node

// SimWorkload pairs a graph with simulation parameters.
type SimWorkload = sim.Workload

// SimConfig controls a simulated run.
type SimConfig = sim.Config

// SimResult is a simulated run outcome.
type SimResult = sim.Result

// SimulatePlan runs the calibrated discrete-event simulator: serial node
// execution, background materialization sharing the write channel, Memory
// Catalog accounting. It reproduces the paper's large-scale experiments
// without moving real bytes. The context is honored between simulated
// nodes; cfg.Observer receives the simulated event stream.
func SimulatePlan(ctx context.Context, w *SimWorkload, plan *Plan, cfg SimConfig) (*SimResult, error) {
	return sim.Run(ctx, w, plan, cfg)
}
