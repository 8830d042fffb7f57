package main

import "fmt"

// metricDef names a metric and fixes its unit. BENCHMARK.json lists the
// same names; bench_test.go fails when the two drift apart.
type metricDef struct{ name, unit string }

// endToEndDefs are what a user of the system sees. Every workload reports
// every one of them in the untraced pass.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"refresh_wall_s", "s"},
	{"naive_wall_s", "s"},
	{"speedup_x", "x"},
	{"mv_read_ms", "ms"},
	{"storage_read_mb", "MB"},
	{"storage_written_mb", "MB"},
}

// perLayerDefs are the numbers of single layers, reported by the traced
// pass. A layer a workload does not exercise reports 0.
var perLayerDefs = []metricDef{
	{"storage.read_s", "s"},
	{"storage.write_s", "s"},
	{"storage.read_ops", "count"},
	{"storage.write_ops", "count"},
	{"storage.mv_read_mb", "MB"},
	{"storage.fs_write_mb_s", "MB/s"},
	{"storage.fs_read_mb_s", "MB/s"},

	{"memcat.flagged_nodes", "count"},
	{"memcat.peak_frac", "ratio"},
	{"memcat.hit_ratio", "ratio"},
	{"memcat.put_get_us", "us"},
	{"memcat.catalog_overrun", "count"},
	{"exec.fallback_writes", "count"},
	{"exec.run_s", "s"},

	{"opt.solve_ms", "ms"},
	{"opt.iterations", "count"},
	{"opt.speedup_x", "x"},
	{"opt.calibration_ratio", "ratio"},
	{"opt.solve_n200_ms", "ms"},

	{"sql.plan_ms", "ms"},
	{"dag.build_ms", "ms"},

	{"engine.compute_s", "s"},
	{"engine.rows_per_s", "1/s"},

	{"kernels.compute_s", "s"},
	{"kernels.parallel_x", "x"},
	{"kernels.lowered_ops", "count"},
	{"kernels.fallbacks", "count"},
	{"kernels.decodes_avoided", "count"},
	{"chunkio.dict_reused", "count"},
	{"sched.acquire_ns", "ns"},

	{"colfmt.encode_mb_s", "MB/s"},
	{"colfmt.decode_mb_s", "MB/s"},
	{"colfmt.chunked_encode_mb_s", "MB/s"},
	{"colfmt.chunked_open_mb_s", "MB/s"},
	{"encoding.compress_mb_s", "MB/s"},
	{"encoding.decode_mb_s", "MB/s"},
	{"encoding.ratio", "x"},

	{"gateway.overhead_ms", "ms"},
	{"gateway.http_rtt_us", "us"},
	{"gateway.refresh_p90_s", "s"},
	{"gateway.refreshes_per_s", "1/s"},
	{"gateway.rejected_429", "count"},
	{"gateway.queue_expired", "count"},
	{"telemetry.overhead_frac", "ratio"},
	{"ledger.append_us", "us"},

	{"sim.io1_speedup_x", "x"},
	{"sim.io2_speedup_x", "x"},
	{"sim.compute1_speedup_x", "x"},
	{"sim.run_ms", "ms"},

	{"process.peak_rss_mb", "MB"},
	{"process.alloc_mb_per_refresh", "MB"},
	{"process.gc_pause_ms", "ms"},

	{"trace.overhead_frac", "ratio"},
	{"failed_share", "ratio"},
}

// metric is one reported number. Value is the median of the samples the
// summary describes (N = 1 for a single measurement or an exact count).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	summary
}

// result is the outcome of one pass of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Seed      int64             `json:"seed"`
	SF        float64           `json:"sf"`
	Reps      int               `json:"reps"` // timed pairs, or rounds per gateway client
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Spans     []span            `json:"spans,omitempty"`

	defs []metricDef
}

func newResult(workload string, o options, sf float64) *result {
	r := &result{Workload: workload, Traced: o.trace, Seed: o.seed, SF: sf, Metrics: map[string]metric{}}
	r.defs = endToEndDefs
	if o.trace {
		r.defs = perLayerDefs
		for _, d := range perLayerDefs {
			r.Metrics[d.name] = metric{Unit: d.unit, summary: summary{N: 1}}
		}
	}
	return r
}

// set records the median of xs under name; the name must be defined for
// this pass, so a typo fails the first run instead of drifting silently.
func (r *result) set(name string, xs ...float64) {
	for _, d := range r.defs {
		if d.name == name {
			s := summarize(xs)
			r.Metrics[name] = metric{Value: s.Median, Unit: d.unit, summary: s}
			return
		}
	}
	panic(fmt.Sprintf("benchmark: metric %q is not defined for this pass", name))
}

// finish folds the operation tally into the result.
func (r *result) finish(ops *tally) {
	r.Attempted, r.Failed = ops.attempted, ops.failed
	r.Correct = ops.failed == 0 && ops.attempted > 0
	if ops.firstErr != nil {
		r.FirstErr = ops.firstErr.Error()
	}
	if r.Traced {
		r.set("failed_share", ratio(float64(ops.failed), float64(ops.attempted)))
	}
}
