package sc

import (
	"fmt"
	"time"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/telemetry"
)

// Option configures New. Options apply in order; later options
// override earlier ones.
type Option func(*config)

// config is the resolved option set.
type config struct {
	memory        int64
	observer      Observer
	concurrency   int
	device        DeviceProfile
	encoding      *encoding.Options
	tracing       bool
	traceExporter telemetry.Exporter
	ledger        bool
	ledgerPath    string
	alertURL      string
	alertCooldown time.Duration
	err           error
}

// newConfig folds the options into a validated config.
func newConfig(opts []Option) (*config, error) {
	cfg := &config{concurrency: 1, device: PaperProfile()}
	for _, o := range opts {
		o(cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	return cfg, nil
}

func (c *config) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// WithMemory sets the Memory Catalog budget in bytes. Zero (the default)
// disables flagging entirely; negative budgets are rejected.
func WithMemory(bytes int64) Option {
	return func(c *config) {
		if bytes < 0 {
			c.fail("sc: negative Memory Catalog budget %d", bytes)
			return
		}
		c.memory = bytes
	}
}

// WithObserver subscribes obs to the session's event stream: node
// execution, materialization, Memory Catalog evictions (with their reason)
// and high-water marks, and optimizer iterations. It is the one watcher a
// run has besides the collector WithTelemetry adds. The observer must be
// safe for concurrent use when combined with WithConcurrency(k > 1).
func WithObserver(obs Observer) Option {
	return func(c *config) { c.observer = obs }
}

// WithConcurrency sets the session's scheduler token budget to k — one
// token is roughly one core's worth of work. Up to k independent DAG nodes
// execute at a time, each on its one token; a node's own work is serial.
// The Memory Catalog budget remains enforced byte-for-byte (outputs that no
// longer fit fall back to blocking writes) and materialized outputs are
// byte-identical to a serial run. k <= 1 (the default) runs nodes serially
// in exact plan order.
func WithConcurrency(k int) Option {
	return func(c *config) {
		if k < 1 {
			k = 1
		}
		c.concurrency = k
	}
}

// WithDevice sets the device profile used for score estimation and
// simulation. The default is PaperProfile.
func WithDevice(d DeviceProfile) Option {
	return func(c *config) {
		if err := d.Validate(); err != nil {
			c.fail("sc: %v", err)
			return
		}
		c.device = d
	}
}

// WithEncoding switches the session onto the compressed path, its one
// switch. Node outputs are compressed per column (dictionary, delta +
// bit-packing, scaled-decimal floats, raw fallback), held
// compressed in the Memory Catalog — so the same budget keeps more MVs
// resident — and written to storage in the chunked colfmt format. The
// optimizer's size and score estimates switch to compressed footprints, so
// flag/order decisions follow the real tradeoff.
//
//	ref, err := sc.New(mvs, store, sc.WithEncoding(sc.EncodingOptions{}))
//
// Every node's plan also runs on the compressed-execution kernels: hash
// joins (with their pushed-down `column <op> literal` side filters),
// aggregates over a scan or a join, and column-only projections over a
// join work on encoded column chunks instead of decode-then-execute. A join
// reads only its key columns to match rows and materializes values only
// for the pairs that survive; its output leaves the kernel as compressed
// chunks and lands in the Memory Catalog and storage without an
// encode-from-rows round trip. Inputs resolve as per-chunk lazy readers,
// so a flagged MV never pays a whole-table decode. Results are
// byte-identical to the row engine: other plan shapes and non-chunked
// inputs (base tables saved with SaveTable) fall back to it transparently.
// KernelDone events report chunks skipped, rows filtered per run and
// decodes avoided per node.
//
// Each join builds its output dictionaries afresh on every Run and drops
// them with its output chunks: nothing encoded is held outside the Memory
// Catalog budget between runs, and a Run over unchanged inputs writes the
// same bytes as the one before. A column whose cardinality outgrows the
// dictionary cap falls back to per-chunk re-encoding.
//
// Pass Mode: sc.EncodingRaw to keep the chunked format but disable
// compression (an explicit baseline for experiments). Reads handle both
// formats whether or not encoding is enabled.
func WithEncoding(opts EncodingOptions) Option {
	return func(c *config) {
		o := opts
		c.encoding = &o
	}
}

// WithVectorized does nothing: WithEncoding runs the compressed-execution
// kernels, and a session without it runs the row engine.
//
// Deprecated: the compressed path has one switch, WithEncoding.
func WithVectorized(bool) Option {
	return func(*config) {}
}

// WithParallelScan does nothing: a node runs on its one token, and the
// kernels walk its chunks serially (see WithConcurrency).
//
// Deprecated: the one form of parallelism is WithConcurrency's k
// concurrent nodes.
func WithParallelScan(bool) Option {
	return func(*config) {}
}

// WithTelemetry enables per-run tracing for the session: every Run/Refresh
// assembles a trace — a root span, one child span per executed node with
// encode/decode/kernel completions as span events, and runtime profiling
// deltas (GC pause, heap allocation, goroutine peak) on the root — plus a
// critical-path analysis of the DAG, available from Refresher.LastTrace.
// Node observations in Metrics carry the matching run ID.
//
// exp, when non-nil, additionally receives every completed trace; see
// NewOTLPTraceExporter and NewFileTraceExporter. The session does not close
// the exporter — that stays with the caller. Pass nil to trace without
// exporting. The collector rides the same event stream as WithObserver;
// without this option and without an observer a run emits no events at
// all — Metrics and the WithLedger summary are built from the run's result
// either way.
func WithTelemetry(exp TraceExporter) Option {
	return func(c *config) {
		c.tracing = true
		c.traceExporter = exp
	}
}

// WithLedger enables the session run ledger: every Run/Refresh lands a
// RunSummary — wall time, per-node wall/self/wait, decoded and encoded
// bytes, compression ratios, kernel fallbacks, evictions, the critical
// path, and predicted-vs-actual peak memory — in a bounded in-memory
// history, read back with Refresher.History. Per-(pipeline, node)
// EWMA baselines learn from succeeded runs and an anomaly detector flags
// wall/bytes regressions, compression-ratio collapses, eviction storms and
// kernel-fallback appearances against them; see the Anomalies field of each
// summary.
//
// path, when non-empty, persists summaries as NDJSON and replays them on
// New, so baselines survive process restarts (the file is compacted to the
// retained history past 4 MB). The summary is built from the run's own
// record, so WithLedger traces nothing: combine it with WithTelemetry to
// also trace runs, which stamps each summary with its trace ID.
func WithLedger(path string) Option {
	return func(c *config) {
		c.ledger = true
		c.ledgerPath = path
	}
}

// WithAlerts pushes the session's flagging-adjacent surprises to a
// webhook instead of waiting for History to be read: every ledger anomaly
// (wall/bytes regressions, ratio collapses, eviction storms, kernel
// fallbacks) and every health-verdict transition POSTs one JSON event to
// webhookURL through a bounded queue with exponential-backoff retry;
// repeats of the same (pipeline, kind) within cooldown are suppressed
// (0 = the 5m default). Call Refresher.Close to drain pending deliveries;
// alerts of runs after Close are counted as dropped.
// WithAlerts implies WithLedger's in-memory ledger — the anomalies are its
// verdicts — and, like it, no tracing.
func WithAlerts(webhookURL string, cooldown time.Duration) Option {
	return func(c *config) {
		if webhookURL == "" {
			c.fail("sc: empty alert webhook URL")
			return
		}
		c.alertURL = webhookURL
		c.alertCooldown = cooldown
		c.ledger = true
	}
}
