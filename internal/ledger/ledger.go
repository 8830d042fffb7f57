package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"

	"github.com/shortcircuit-db/sc/internal/metrics"
)

// The anomaly detector's thresholds, and the cap on the NDJSON file. No
// caller ever tuned them, so they are constants; SlowSeconds, the one value
// callers do set, stays in Config.
const (
	// minSamples is how many succeeded runs a baseline needs before the
	// detector and the tail sampler trust it.
	minSamples = 3
	// zThreshold is the z-score at which a wall, bytes or eviction
	// deviation counts as a regression.
	zThreshold = 3.0
	// minWallDeltaSeconds and minBytesDelta are absolute floors under the
	// z-score: microsecond jitter on a tiny node, or a few bytes on a tiny
	// output, is never a regression.
	minWallDeltaSeconds = 0.010
	minBytesDelta       = 4096
	// ratioCollapse flags a node whose compression ratio fell below this
	// fraction of its baseline mean.
	ratioCollapse = 0.5
	// evictionMin is the fewest evictions that make a storm; a z-score
	// alone is not enough when the baseline is near zero.
	evictionMin = 4
	// maxFileBytes bounds the NDJSON file: an append (or replay) that
	// pushes past it compacts the file down to the retained ring, so the
	// history on disk cannot grow without bound.
	maxFileBytes = 4 << 20
)

// Config configures a Ledger.
type Config struct {
	// Capacity bounds the in-memory ring; older summaries are evicted (the
	// NDJSON file, when set, keeps them until its next compaction).
	// Default 512.
	Capacity int
	// Path appends every summary as one NDJSON line and is replayed on
	// open, so baselines and history survive restarts. "" keeps the ledger
	// in memory only.
	Path string
	// SlowSeconds marks a run "slow" for tail sampling when its wall time
	// exceeds it, even without a baseline. Zero disables the absolute check
	// (the z-score check against the pipeline baseline still applies).
	SlowSeconds float64
}

// Decision is the tail-sampling verdict for one run: whether its full
// trace is worth keeping.
type Decision struct {
	Keep    bool     `json:"keep"`
	Reasons []string `json:"reasons,omitempty"`
}

// nodeBaseline is the learned behaviour of one (pipeline, node).
type nodeBaseline struct {
	wall      metrics.EWMA
	bytes     metrics.EWMA
	ratio     metrics.EWMA
	fallbacks metrics.EWMA
}

// pipelineBaseline aggregates run-level behaviour of one pipeline.
type pipelineBaseline struct {
	wall       metrics.EWMA
	evictions  metrics.EWMA
	mispredict metrics.EWMA
	nodes      map[string]*nodeBaseline
}

// NodeBaseline is the exported snapshot of a learned per-node baseline.
type NodeBaseline struct {
	Node             string  `json:"node"`
	Samples          int64   `json:"samples"`
	WallMeanSeconds  float64 `json:"wall_mean_seconds"`
	WallSigmaSeconds float64 `json:"wall_sigma_seconds"`
	BytesMean        float64 `json:"bytes_mean"`
	RatioMean        float64 `json:"ratio_mean,omitempty"`
	FallbackMean     float64 `json:"fallback_mean,omitempty"`
}

// Filter selects runs from the history. Zero fields match everything.
type Filter struct {
	Pipeline  string
	Tenant    string
	Outcome   string
	Anomalous bool // only runs the detector flagged
	Limit     int  // max runs returned; 0 means all retained
}

// Ledger is the bounded run-history store plus the learned baselines and
// the anomaly detector over them. Safe for concurrent use.
type Ledger struct {
	mu        sync.Mutex
	cfg       Config
	fileCap   int64 // maxFileBytes, but for the compaction tests
	ring      []RunSummary
	head      int // next slot to overwrite once the ring is full
	evicted   int64
	baselines map[string]*pipelineBaseline
	file      *os.File
	fileBytes int64 // current NDJSON file size, vs fileCap
	err       error
}

// New opens a ledger. When cfg.Path names an existing NDJSON file its
// summaries are replayed into the ring and baselines (detection is not
// re-run; stored anomalies are kept as recorded), then the file is opened
// for appending.
func New(cfg Config) (*Ledger, error) { return open(cfg, maxFileBytes) }

// open is New with the NDJSON size cap as a parameter.
func open(cfg Config, fileCap int64) (*Ledger, error) {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 512
	}
	l := &Ledger{
		cfg:       cfg,
		fileCap:   fileCap,
		baselines: make(map[string]*pipelineBaseline),
	}
	if cfg.Path != "" {
		if err := l.replay(cfg.Path); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("ledger: open %s: %w", cfg.Path, err)
		}
		l.file = f
		if fi, err := f.Stat(); err == nil {
			l.fileBytes = fi.Size()
		}
		// A replayed history already past the cap compacts immediately, so
		// restarts trim the file instead of inheriting unbounded growth.
		if l.fileBytes > l.fileCap {
			l.compactLocked()
		}
	}
	return l, nil
}

// replay folds an existing NDJSON history into the ring and baselines.
func (l *Ledger) replay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("ledger: replay %s: %w", path, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var s RunSummary
		if err := json.Unmarshal(b, &s); err != nil {
			return fmt.Errorf("ledger: replay %s line %d: %w", path, line, err)
		}
		l.learnLocked(&s)
		l.pushLocked(s)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("ledger: replay %s: %w", path, err)
	}
	return nil
}

// Close flushes and closes the NDJSON file, if any.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return l.err
	}
	err := l.file.Close()
	l.file = nil
	if l.err != nil {
		return l.err
	}
	return err
}

// Append records one run: the summary is judged against the learned
// baselines (filling s.Anomalies), folded into them, pushed onto the ring,
// and persisted. The returned Decision is the tail-sampling verdict —
// whether this run's full trace deserves retention.
func (l *Ledger) Append(s RunSummary) (RunSummary, Decision) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.detectLocked(&s)
	dec := l.decideLocked(&s)
	l.learnLocked(&s)
	l.pushLocked(s)
	l.persistLocked(&s)
	return s, dec
}

// failLocked keeps the first persistence error for Close to report.
func (l *Ledger) failLocked(err error) {
	if l.err == nil {
		l.err = err
	}
}

// persistLocked appends one summary to the NDJSON file and compacts when
// the append pushed the file past the size cap.
func (l *Ledger) persistLocked(s *RunSummary) {
	if l.file == nil {
		return
	}
	b, err := json.Marshal(s)
	if err == nil {
		b = append(b, '\n')
		_, err = l.file.Write(b)
	}
	if err != nil {
		l.failLocked(err)
		return
	}
	l.fileBytes += int64(len(b))
	if l.fileBytes > l.fileCap {
		l.compactLocked()
	}
}

// compactLocked rewrites the NDJSON file from the retained ring (oldest
// first) to a temp file and renames it into place, dropping lines the
// bounded ring has already evicted. Failures leave the original file in
// place and record the first error.
func (l *Ledger) compactLocked() {
	path := l.cfg.Path
	tmp := path + ".compact"
	n, err := l.writeRing(tmp)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		l.failLocked(fmt.Errorf("ledger: compact %s: %w", path, err))
		return
	}
	if l.file != nil {
		l.file.Close()
	}
	if l.file, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		l.failLocked(fmt.Errorf("ledger: reopen %s: %w", path, err))
		return
	}
	l.fileBytes = n
}

// writeRing writes the retained ring to a new file at path, oldest first,
// and returns the bytes written.
func (l *Ledger) writeRing(path string) (int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	var n int64
	for i := 0; i < len(l.ring); i++ {
		b, err := json.Marshal(l.ring[(l.head+i)%len(l.ring)])
		if err != nil {
			continue
		}
		nn, err := f.Write(append(b, '\n'))
		if err != nil {
			f.Close()
			return 0, err
		}
		n += int64(nn)
	}
	return n, f.Close()
}

// detectLocked fills s.Anomalies by judging the run against the
// pre-existing baselines. Only succeeded runs are judged — failed runs are
// already kept by the tail sampler and their partial numbers would poison
// comparisons.
func (l *Ledger) detectLocked(s *RunSummary) {
	if s.Outcome != OutcomeSucceeded {
		return
	}
	pb := l.baselines[s.Pipeline]
	// Admission misprediction: the reservation proved too small and the run
	// degraded to blocking writes. Needs no baseline — one occurrence is
	// already the paper's accounting violated.
	if s.ReservedBytes > 0 && s.FallbackWrites > 0 {
		s.Anomalies = append(s.Anomalies, Anomaly{
			Kind:     KindMispredict,
			Observed: float64(s.ActualPeakBytes),
			Baseline: float64(s.ReservedBytes),
			Detail:   fmt.Sprintf("%d blocking writes: reserved %d B < actual demand", s.FallbackWrites, s.ReservedBytes),
		})
	}
	if pb == nil {
		return
	}
	if pb.evictions.N >= minSamples && s.Evictions >= evictionMin {
		if z := pb.evictions.Z(float64(s.Evictions)); z >= zThreshold {
			s.Anomalies = append(s.Anomalies, Anomaly{
				Kind: KindEvictionStorm, Score: z,
				Observed: float64(s.Evictions), Baseline: pb.evictions.Mean,
				Detail: fmt.Sprintf("%d evictions vs baseline %.1f", s.Evictions, pb.evictions.Mean),
			})
		}
	}
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		nb := pb.nodes[ns.Node]
		if nb == nil || nb.wall.N < minSamples {
			continue
		}
		if z := nb.wall.Z(ns.WallSeconds); z >= zThreshold && ns.WallSeconds-nb.wall.Mean >= minWallDeltaSeconds {
			s.Anomalies = append(s.Anomalies, Anomaly{
				Kind: KindWallRegression, Node: ns.Node, Score: z,
				Observed: ns.WallSeconds, Baseline: nb.wall.Mean,
				Detail: fmt.Sprintf("%.1fms vs baseline %.1fms", ns.WallSeconds*1e3, nb.wall.Mean*1e3),
			})
		}
		if ns.OutputBytes > 0 {
			if z := nb.bytes.Z(float64(ns.OutputBytes)); z >= zThreshold && float64(ns.OutputBytes)-nb.bytes.Mean >= minBytesDelta {
				s.Anomalies = append(s.Anomalies, Anomaly{
					Kind: KindBytesRegression, Node: ns.Node, Score: z,
					Observed: float64(ns.OutputBytes), Baseline: nb.bytes.Mean,
					Detail: fmt.Sprintf("%d B vs baseline %.0f B", ns.OutputBytes, nb.bytes.Mean),
				})
			}
		}
		if ns.Ratio > 0 && nb.ratio.N >= minSamples && nb.ratio.Mean > 0 &&
			ns.Ratio < ratioCollapse*nb.ratio.Mean {
			s.Anomalies = append(s.Anomalies, Anomaly{
				Kind: KindRatioCollapse, Node: ns.Node,
				Observed: ns.Ratio, Baseline: nb.ratio.Mean,
				Detail: fmt.Sprintf("ratio %.2f vs baseline %.2f", ns.Ratio, nb.ratio.Mean),
			})
		}
		if ns.KernelFallbacks > 0 && nb.fallbacks.N >= minSamples && nb.fallbacks.Mean == 0 {
			s.Anomalies = append(s.Anomalies, Anomaly{
				Kind: KindKernelFallback, Node: ns.Node,
				Observed: float64(ns.KernelFallbacks),
				Detail:   fmt.Sprintf("%d row-engine fallbacks on a node that never fell back", ns.KernelFallbacks),
			})
		}
	}
}

// decideLocked is the tail-sampling policy: keep the trace when the run is
// anomalous, did not succeed, or is slow against its own pipeline history.
func (l *Ledger) decideLocked(s *RunSummary) Decision {
	var dec Decision
	if len(s.Anomalies) > 0 {
		dec.Reasons = append(dec.Reasons, "anomalous")
	}
	if s.Outcome != OutcomeSucceeded {
		dec.Reasons = append(dec.Reasons, s.Outcome)
	}
	if l.cfg.SlowSeconds > 0 && s.WallSeconds > l.cfg.SlowSeconds {
		dec.Reasons = append(dec.Reasons, "slow")
	} else if pb := l.baselines[s.Pipeline]; pb != nil && pb.wall.N >= minSamples {
		if z := pb.wall.Z(s.WallSeconds); z >= zThreshold && s.WallSeconds-pb.wall.Mean >= minWallDeltaSeconds {
			dec.Reasons = append(dec.Reasons, "slow")
		}
	}
	dec.Keep = len(dec.Reasons) > 0
	return dec
}

// learnLocked folds a succeeded run into the pipeline and node baselines.
func (l *Ledger) learnLocked(s *RunSummary) {
	if s.Outcome != OutcomeSucceeded {
		return
	}
	pb := l.baselines[s.Pipeline]
	if pb == nil {
		pb = &pipelineBaseline{nodes: make(map[string]*nodeBaseline)}
		l.baselines[s.Pipeline] = pb
	}
	pb.wall.Observe(s.WallSeconds)
	pb.evictions.Observe(float64(s.Evictions))
	if s.ReservedBytes > 0 {
		pb.mispredict.Observe(s.Mispredict)
	}
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		nb := pb.nodes[ns.Node]
		if nb == nil {
			nb = &nodeBaseline{}
			pb.nodes[ns.Node] = nb
		}
		nb.wall.Observe(ns.WallSeconds)
		nb.bytes.Observe(float64(ns.OutputBytes))
		if ns.Ratio > 0 {
			nb.ratio.Observe(ns.Ratio)
		}
		nb.fallbacks.Observe(float64(ns.KernelFallbacks))
	}
}

// pushLocked appends to the bounded ring, evicting the oldest entry when
// full.
func (l *Ledger) pushLocked(s RunSummary) {
	if len(l.ring) < l.cfg.Capacity {
		l.ring = append(l.ring, s)
		return
	}
	l.ring[l.head] = s
	l.head = (l.head + 1) % l.cfg.Capacity
	l.evicted++
}

// Forget drops everything the ledger holds about one pipeline: its learned
// baselines and its rows in the ring (and, through a compaction, in the
// NDJSON file). A different pipeline registered under the same name then
// starts from nothing.
func (l *Ledger) Forget(pipeline string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.baselines, pipeline)
	kept := make([]RunSummary, 0, len(l.ring))
	for i := range l.ring {
		// Oldest first, so the rebuilt ring starts at head 0.
		if s := l.ring[(l.head+i)%len(l.ring)]; s.Pipeline != pipeline {
			kept = append(kept, s)
		}
	}
	if len(kept) == len(l.ring) {
		return
	}
	l.ring, l.head = kept, 0
	if l.file != nil {
		l.compactLocked()
	}
}

// Stats is one reading of the ledger: the summaries its ring holds, how
// many the bounded ring has dropped, and the learned mispredict ratio of
// every pipeline it keeps baselines for.
type Stats struct {
	Runs       int
	Evicted    int64
	Mispredict map[string]float64
}

// Stats reads the ledger's occupancy and mispredict ratios under one lock.
func (l *Ledger) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{Runs: len(l.ring), Evicted: l.evicted, Mispredict: make(map[string]float64, len(l.baselines))}
	for p := range l.baselines {
		st.Mispredict[p] = l.mispredictLocked(p)
	}
	return st
}

// Runs returns retained summaries matching the filter, newest first.
func (l *Ledger) Runs(f Filter) []RunSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.runsLocked(f)
}

func (l *Ledger) runsLocked(f Filter) []RunSummary {
	out := make([]RunSummary, 0, len(l.ring))
	for i := len(l.ring) - 1; i >= 0; i-- {
		// Chronological order in the ring is ring[head:] then ring[:head];
		// walk it backwards for newest-first.
		s := l.ring[(l.head+i)%len(l.ring)]
		if f.Pipeline != "" && s.Pipeline != f.Pipeline {
			continue
		}
		if f.Tenant != "" && s.Tenant != f.Tenant {
			continue
		}
		if f.Outcome != "" && s.Outcome != f.Outcome {
			continue
		}
		if f.Anomalous && len(s.Anomalies) == 0 {
			continue
		}
		out = append(out, s)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// mispredictLocked is the pipeline's learned mean |reserved−actual|/reserved
// over its admitted runs (0 when the pipeline never reserved).
func (l *Ledger) mispredictLocked(pipeline string) float64 {
	if pb := l.baselines[pipeline]; pb != nil && pb.mispredict.N > 0 {
		return pb.mispredict.Mean
	}
	return 0
}

// Baselines snapshots the learned per-node baselines of a pipeline,
// sorted by node name.
func (l *Ledger) Baselines(pipeline string) []NodeBaseline {
	l.mu.Lock()
	defer l.mu.Unlock()
	pb := l.baselines[pipeline]
	if pb == nil {
		return nil
	}
	out := make([]NodeBaseline, 0, len(pb.nodes))
	for name, nb := range pb.nodes {
		out = append(out, NodeBaseline{
			Node:             name,
			Samples:          nb.wall.N,
			WallMeanSeconds:  nb.wall.Mean,
			WallSigmaSeconds: math.Sqrt(nb.wall.Var),
			BytesMean:        nb.bytes.Mean,
			RatioMean:        nb.ratio.Mean,
			FallbackMean:     nb.fallbacks.Mean,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
