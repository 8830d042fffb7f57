package gateway

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Prometheus text-exposition registry, hand-rolled so the gateway stays
// dependency-free. Families follow exporter conventions: unit-suffixed
// names, _total on counters, cumulative _bucket/_sum/_count histograms.
// Two renderings share the registry: the classic text format (0.0.4) and
// OpenMetrics 1.0 (negotiated via Accept), which additionally carries
// exemplars — per-bucket trace IDs tying a latency observation to the run
// trace that produced it.

// labelKey joins label values into a map key; \x1f cannot appear in a
// sane label value.
func labelKey(lvs []string) string { return strings.Join(lvs, "\x1f") }

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func labelPairs(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	b.WriteByte('}')
	return b.String()
}

// counterVec is a labeled monotonically increasing counter family.
type counterVec struct {
	name, help string
	labels     []string

	mu   sync.Mutex
	vals map[string]float64
	lvs  map[string][]string
}

func newCounterVec(name, help string, labels ...string) *counterVec {
	return &counterVec{name: name, help: help, labels: labels,
		vals: make(map[string]float64), lvs: make(map[string][]string)}
}

func (c *counterVec) add(v float64, labelValues ...string) {
	if v == 0 {
		return
	}
	k := labelKey(labelValues)
	c.mu.Lock()
	if _, ok := c.vals[k]; !ok {
		c.lvs[k] = append([]string(nil), labelValues...)
	}
	c.vals[k] += v
	c.mu.Unlock()
}

func (c *counterVec) write(w io.Writer, om bool) {
	c.mu.Lock()
	keys := make([]string, 0, len(c.vals))
	for k := range c.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	family := c.name
	if om {
		// OpenMetrics names the counter family without the _total suffix;
		// the sample line keeps it.
		family = strings.TrimSuffix(c.name, "_total")
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", family, c.help, family)
	for _, k := range keys {
		fmt.Fprintf(w, "%s%s %g\n", c.name, labelPairs(c.labels, c.lvs[k]), c.vals[k])
	}
	c.mu.Unlock()
}

// histVec is a labeled cumulative histogram family.
type histVec struct {
	name, help string
	labels     []string
	buckets    []float64 // upper bounds, ascending; +Inf implied

	mu sync.Mutex
	m  map[string]*histCell
}

type histCell struct {
	lvs    []string
	counts []int64
	sum    float64
	count  int64
	// exemplars holds the latest exemplar per bucket (len(buckets)+1, the
	// last slot for +Inf); rendered only in the OpenMetrics exposition.
	exemplars []*exemplar
}

// exemplar ties one histogram observation to its trace.
type exemplar struct {
	labels string // rendered label body, e.g. trace_id="abc..."
	v      float64
	ts     time.Time
}

func newHistVec(name, help string, buckets []float64, labels ...string) *histVec {
	return &histVec{name: name, help: help, labels: labels, buckets: buckets,
		m: make(map[string]*histCell)}
}

func (h *histVec) observe(v float64, labelValues ...string) {
	h.observeExemplar(v, "", labelValues...)
}

// observeExemplar records v and, when exLabels is non-empty (e.g.
// `trace_id="..."`), attaches it as the exemplar of the lowest bucket that
// counts v.
func (h *histVec) observeExemplar(v float64, exLabels string, labelValues ...string) {
	k := labelKey(labelValues)
	h.mu.Lock()
	cell := h.m[k]
	if cell == nil {
		cell = &histCell{
			lvs:       append([]string(nil), labelValues...),
			counts:    make([]int64, len(h.buckets)),
			exemplars: make([]*exemplar, len(h.buckets)+1),
		}
		h.m[k] = cell
	}
	slot := len(h.buckets) // +Inf
	for i, ub := range h.buckets {
		if v <= ub {
			cell.counts[i]++
			if i < slot {
				slot = i
			}
		}
	}
	cell.sum += v
	cell.count++
	if exLabels != "" {
		cell.exemplars[slot] = &exemplar{labels: exLabels, v: v, ts: time.Now()}
	}
	h.mu.Unlock()
}

func (h *histVec) write(w io.Writer, om bool) {
	h.mu.Lock()
	keys := make([]string, 0, len(h.m))
	for k := range h.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	for _, k := range keys {
		cell := h.m[k]
		bucketLine := func(le string, count int64, slot int) {
			lvs := append(append([]string(nil), cell.lvs...), le)
			fmt.Fprintf(w, "%s_bucket%s %d", h.name,
				labelPairs(append(append([]string(nil), h.labels...), "le"), lvs), count)
			if om && slot < len(cell.exemplars) {
				if ex := cell.exemplars[slot]; ex != nil {
					// OpenMetrics exemplar: value # {labels} exemplar_value ts
					fmt.Fprintf(w, " # {%s} %g %.3f", ex.labels, ex.v, float64(ex.ts.UnixNano())/1e9)
				}
			}
			fmt.Fprintln(w)
		}
		for i, ub := range h.buckets {
			bucketLine(fmt.Sprintf("%g", ub), cell.counts[i], i)
		}
		bucketLine("+Inf", cell.count, len(h.buckets))
		fmt.Fprintf(w, "%s_sum%s %g\n", h.name, labelPairs(h.labels, cell.lvs), cell.sum)
		fmt.Fprintf(w, "%s_count%s %d\n", h.name, labelPairs(h.labels, cell.lvs), cell.count)
	}
	h.mu.Unlock()
}

// gaugeSample is one scrape-time gauge reading.
type gaugeSample struct {
	lvs []string
	v   float64
}

// gaugeVec is a labeled gauge family whose values are collected at scrape
// time — queue depth and catalog byte gauges project the scrape's one
// server snapshot instead of being kept in sync event by event.
type gaugeVec struct {
	name, help string
	labels     []string
	collect    func(*snapshot) []gaugeSample
}

func (g *gaugeVec) write(w io.Writer, sn *snapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
	samples := g.collect(sn)
	sort.Slice(samples, func(i, j int) bool {
		return labelKey(samples[i].lvs) < labelKey(samples[j].lvs)
	})
	for _, s := range samples {
		fmt.Fprintf(w, "%s%s %g\n", g.name, labelPairs(g.labels, s.lvs), s.v)
	}
}

// latencyBuckets spans queue waits through multi-minute refreshes.
var latencyBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// prom is the gateway's metric registry: finished runs and admission
// decisions land in counters and histograms here, gauges project a server
// snapshot at scrape time, and the /metrics handler writes the exposition.
// Each family is registered once, into the slice write loops over.
type prom struct {
	refreshes       *counterVec // tenant, pipeline, status
	triggers        *counterVec // outcome
	decodeBytes     *counterVec // tenant, pipeline
	encodeBytes     *counterVec // tenant, pipeline
	materialized    *counterVec // tenant, pipeline
	evictions       *counterVec // tenant, pipeline
	kernelFallbacks *counterVec // tenant, pipeline
	anomalies       *counterVec // pipeline, kind
	eventsDropped   *counterVec // tenant, pipeline
	traceSampled    *counterVec // decision
	refreshSeconds  *histVec    // tenant, pipeline
	queueWait       *histVec    // (none)
	mvReadSeconds   *histVec    // (none)

	// Exposition order: counters, then gauges, then histograms, each in
	// registration order.
	counters []*counterVec
	gauges   []*gaugeVec
	hists    []*histVec
}

func newProm() *prom {
	p := &prom{}
	p.refreshes = p.counter("scserve_refreshes_total",
		"Completed refresh runs by terminal status.", "tenant", "pipeline", "status")
	p.triggers = p.counter("scserve_triggers_total",
		"Trigger admission outcomes.", "outcome")
	p.decodeBytes = p.counter("scserve_decode_bytes_total",
		"Raw bytes decoded serving catalog and chunked-file reads.", "tenant", "pipeline")
	p.encodeBytes = p.counter("scserve_encode_bytes_total",
		"Encoded bytes produced by node outputs.", "tenant", "pipeline")
	p.materialized = p.counter("scserve_materialized_bytes_total",
		"Bytes materialized to external storage.", "tenant", "pipeline")
	p.evictions = p.counter("scserve_evictions_total",
		"Flagged outputs released from the shared catalog.", "tenant", "pipeline")
	p.kernelFallbacks = p.counter("scserve_kernel_fallbacks_total",
		"Kernel executions that reverted to the row engine.", "tenant", "pipeline")
	p.anomalies = p.counter("scserve_anomalies_total",
		"Baseline anomalies detected in finished runs.", "pipeline", "kind")
	p.eventsDropped = p.counter("scserve_run_events_dropped_total",
		"Run events dropped by the bounded event buffer.", "tenant", "pipeline")
	p.traceSampled = p.counter("scserve_traces_sampled_total",
		"Tail-sampling decisions on finished run traces.", "decision")
	p.refreshSeconds = p.hist("scserve_refresh_seconds",
		"End-to-end refresh latency (trigger to all MVs materialized), including queue wait.",
		"tenant", "pipeline")
	p.queueWait = p.hist("scserve_queue_wait_seconds",
		"Time triggers spent queued before admission.")
	p.mvReadSeconds = p.hist("scserve_mv_read_seconds",
		"Server-side MV query latency.")
	return p
}

func (p *prom) counter(name, help string, labels ...string) *counterVec {
	c := newCounterVec(name, help, labels...)
	p.counters = append(p.counters, c)
	return c
}

func (p *prom) hist(name, help string, labels ...string) *histVec {
	h := newHistVec(name, help, latencyBuckets, labels...)
	p.hists = append(p.hists, h)
	return h
}

// addGauge registers a scrape-time gauge family.
func (p *prom) addGauge(name, help string, labels []string, collect func(*snapshot) []gaugeSample) {
	p.gauges = append(p.gauges, &gaugeVec{name: name, help: help, labels: labels, collect: collect})
}

// write renders the full exposition, every gauge from the one snapshot
// sn; om selects OpenMetrics 1.0 (counter families named without _total,
// exemplars on histogram buckets, trailing # EOF) over the classic 0.0.4
// text format.
func (p *prom) write(w io.Writer, om bool, sn *snapshot) {
	for _, c := range p.counters {
		c.write(w, om)
	}
	for _, g := range p.gauges {
		g.write(w, sn)
	}
	for _, h := range p.hists {
		h.write(w, om)
	}
	if om {
		io.WriteString(w, "# EOF\n")
	}
}

// registerGauges registers the server's scrape-time gauges, each a
// projection of the scrape's snapshot.
func (p *prom) registerGauges() {
	// value registers an unlabeled gauge with one reading.
	value := func(name, help string, read func(*snapshot) float64) {
		p.addGauge(name, help, nil, func(sn *snapshot) []gaugeSample { return []gaugeSample{{v: read(sn)}} })
	}
	// perTenant registers a gauge with one reading per registered tenant.
	perTenant := func(name, help string, read func(sn *snapshot, tenant string) float64) {
		p.addGauge(name, help, []string{"tenant"}, func(sn *snapshot) []gaugeSample {
			var out []gaugeSample
			for _, t := range sn.tenants {
				out = append(out, gaugeSample{lvs: []string{t}, v: read(sn, t)})
			}
			return out
		})
	}
	value("scserve_queue_depth", "Triggers waiting for admission.",
		func(sn *snapshot) float64 { return float64(len(sn.adm.queue)) })
	value("scserve_catalog_budget_bytes", "Global shared Memory Catalog budget.",
		func(sn *snapshot) float64 { return float64(sn.pool.Capacity) })
	value("scserve_catalog_reserved_bytes", "Bytes reserved by admitted refreshes.",
		func(sn *snapshot) float64 { return float64(sn.adm.reserved) })
	value("scserve_catalog_used_bytes", "Bytes resident across all run catalogs.",
		func(sn *snapshot) float64 { return float64(sn.pool.Used) })
	value("scserve_catalog_peak_used_bytes", "High-water mark of resident bytes.",
		func(sn *snapshot) float64 { return float64(sn.pool.PeakUsed) })
	perTenant("scserve_tenant_slice_bytes", "Configured tenant budget slice.",
		func(sn *snapshot, t string) float64 { return float64(sn.adm.tenants[t].slice) })
	perTenant("scserve_tenant_reserved_bytes", "Bytes a tenant's admitted refreshes hold reserved.",
		func(sn *snapshot, t string) float64 { return float64(sn.adm.tenants[t].reserved) })
	value("scserve_sched_tokens_idle", "Scheduler tokens currently idle in the shared pool.",
		func(sn *snapshot) float64 { return float64(sn.sched.Idle) })
	value("scserve_sched_tokens_committed", "Scheduler tokens soft-committed by admitted refreshes.",
		func(sn *snapshot) float64 { return float64(sn.adm.committed) })
	value("scserve_ledger_runs", "Run summaries retained in the ledger ring.",
		func(sn *snapshot) float64 { return float64(sn.ledger.Runs) })
	value("scserve_ledger_evicted_total", "Run summaries evicted from the bounded ledger ring.",
		func(sn *snapshot) float64 { return float64(sn.ledger.Evicted) })
	p.addGauge("scserve_mispredict_ratio",
		"Learned mean |reserved-actual|/reserved of admission reservations.", []string{"pipeline"},
		func(sn *snapshot) []gaugeSample { return samples(sn.ledger.Mispredict) })
	value("scserve_catalog_entry_bytes",
		"Bytes resident across run catalogs, summed from per-entry accounting (pins the /v1/state/catalog byte totals).",
		func(sn *snapshot) float64 { return float64(sn.catalog.EntryBytes) })
	p.addGauge("scserve_catalog_codec_bytes",
		"Compressed bytes resident in run catalogs, by codec.", []string{"codec"},
		func(sn *snapshot) []gaugeSample { return samples(sn.catalog.CodecBytes) })
	p.addGauge("scserve_catalog_codec_chunks",
		"Compressed chunks resident in run catalogs, by codec.", []string{"codec"},
		func(sn *snapshot) []gaugeSample { return samples(sn.catalog.CodecChunks) })
	value("scserve_catalog_evictions_total", "Catalog entries evicted across all run catalogs.",
		func(sn *snapshot) float64 { return float64(sn.catalog.EvictionsSeen) })
	p.addGauge("scserve_alerts_total",
		"Alert webhook delivery outcomes.", []string{"outcome"}, func(sn *snapshot) []gaugeSample {
			if sn.alerts == nil {
				return nil
			}
			return samples(map[string]int64{
				"delivered": sn.alerts.Delivered,
				"dropped":   sn.alerts.Dropped,
				"deduped":   sn.alerts.Deduped,
				"retried":   sn.alerts.Retries,
			})
		})
	perTenant("scserve_tenant_catalog_bytes", "Bytes resident in a tenant's live run catalogs.",
		func(sn *snapshot, t string) float64 {
			var used int64
			for _, e := range sn.catalog.Entries {
				if e.Tenant == t {
					used += e.SizeBytes
				}
			}
			return float64(used)
		})
}

// samples lists one reading per key of m, labeled by the key.
func samples[V int | int64 | float64](m map[string]V) []gaugeSample {
	var out []gaugeSample
	for k, v := range m {
		out = append(out, gaugeSample{lvs: []string{k}, v: float64(v)})
	}
	return out
}
