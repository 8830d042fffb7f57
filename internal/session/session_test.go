package session

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/introspect/alert"
	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/metrics"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/telemetry"
)

func testPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := NewPipeline("p", []exec.NodeSpec{
		{Name: "a", SQL: `SELECT day FROM sales`},
		{Name: "b", SQL: `SELECT day FROM a`},
	}, storage.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tracedRun opens a trace on p and, for a run that executed, plays one node
// through it and returns the run's record.
func tracedRun(p *Pipeline, runID string, executed bool) (*telemetry.Collector, *exec.RunResult) {
	col := p.OpenTrace(runID, time.Time{}, telemetry.SpanContext{})
	if !executed {
		return col, nil
	}
	start := time.Now()
	col.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "a", At: start})
	col.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "a", Bytes: 64, Elapsed: time.Millisecond})
	return col, &exec.RunResult{Start: start, Total: time.Millisecond, Nodes: []exec.NodeMetrics{
		{Name: "a", Start: start, End: start.Add(time.Millisecond), OutputBytes: 64},
	}}
}

type captureExporter struct{ traces [][]telemetry.Span }

func (c *captureExporter) Export(spans []telemetry.Span) { c.traces = append(c.traces, spans) }
func (c *captureExporter) Close() error                  { return nil }

func newLedger(t *testing.T, cfg ledger.Config) *ledger.Ledger {
	t.Helper()
	led, err := ledger.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	return led
}

// TestFinishLandsTheCallersOutcome covers what every caller relies on: the
// outcome and error the caller mapped arrive unchanged on the ledger row,
// the root span's status is the error or else the non-success outcome, a
// run that never executed still lands its row from a trace of the root span
// alone, and tail sampling exports exactly the traces the ledger keeps.
func TestFinishLandsTheCallersOutcome(t *testing.T) {
	cases := []struct {
		name       string
		queuedOnly bool // reached a terminal state without executing a node
		tailSample bool
		meta       ledger.Meta
		rootStatus string
		sampled    string
	}{
		{name: "succeeded",
			meta: ledger.Meta{Outcome: ledger.OutcomeSucceeded}, sampled: SampleKept},
		{name: "failed",
			meta:       ledger.Meta{Outcome: ledger.OutcomeFailed, Err: "exec: node a: boom"},
			rootStatus: "exec: node a: boom", sampled: SampleKept},
		{name: "canceled",
			meta:       ledger.Meta{Outcome: ledger.OutcomeCanceled, Err: "context canceled"},
			rootStatus: "context canceled", sampled: SampleKept},
		{name: "deadline mapped to canceled by the library",
			meta:       ledger.Meta{Outcome: ledger.OutcomeCanceled, Err: "context deadline exceeded"},
			rootStatus: "context deadline exceeded", sampled: SampleKept},
		{name: "deadline mapped to failed by the gateway",
			meta:       ledger.Meta{Outcome: ledger.OutcomeFailed, Err: "context deadline exceeded"},
			rootStatus: "context deadline exceeded", sampled: SampleKept},
		{name: "expired in the queue, never executed", queuedOnly: true,
			meta:       ledger.Meta{Outcome: ledger.OutcomeExpired},
			rootStatus: ledger.OutcomeExpired, sampled: SampleKept},
		{name: "canceled in the queue, never executed", queuedOnly: true,
			meta:       ledger.Meta{Outcome: ledger.OutcomeCanceled, WallSeconds: 0.5},
			rootStatus: ledger.OutcomeCanceled, sampled: SampleKept},
		{name: "tail sampling drops a healthy trace", tailSample: true,
			meta: ledger.Meta{Outcome: ledger.OutcomeSucceeded}, sampled: SampleDropped},
		{name: "tail sampling keeps a failed trace", tailSample: true,
			meta:       ledger.Meta{Outcome: ledger.OutcomeFailed, Err: "boom"},
			rootStatus: "boom", sampled: SampleKept},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testPipeline(t)
			exp := &captureExporter{}
			f := Finisher{Ledger: newLedger(t, ledger.Config{}), Exporter: exp, TailSample: tc.tailSample}
			col, res := tracedRun(p, "run-1", !tc.queuedOnly)
			tc.meta.RunID = "run-1"
			sum, sampled, spans := f.Finish(p, col, res, time.Time{}, tc.meta)

			rows := f.Ledger.Runs(ledger.Filter{Pipeline: "p"})
			if len(rows) != 1 {
				t.Fatalf("ledger holds %d rows for the pipeline, want 1", len(rows))
			}
			if row := rows[0]; row.Outcome != tc.meta.Outcome || row.Error != tc.meta.Err || row.RunID != "run-1" ||
				row.Outcome != sum.Outcome || row.WallSeconds != sum.WallSeconds ||
				(tc.meta.WallSeconds != 0 && row.WallSeconds != tc.meta.WallSeconds) {
				t.Fatalf("row %+v does not carry meta %+v", row, tc.meta)
			}
			if sampled != tc.sampled {
				t.Fatalf("sampled = %q, want %q", sampled, tc.sampled)
			}
			if wantExports := map[string]int{SampleKept: 1}[tc.sampled]; len(exp.traces) != wantExports {
				t.Fatalf("%d traces exported, want %d", len(exp.traces), wantExports)
			}
			if !col.Finished() || spans[0].Err != tc.rootStatus || sum.TraceID == "" {
				t.Fatalf("root status %q (want %q), trace id %q", spans[0].Err, tc.rootStatus, sum.TraceID)
			}
			if tc.queuedOnly {
				if len(spans) != 1 || len(sum.Nodes) != 0 {
					t.Fatalf("a run that never executed has %d spans and node rows %+v", len(spans), sum.Nodes)
				}
				return
			}
			if len(spans) != 2 || len(sum.Nodes) != 1 || sum.Nodes[0].Node != "a" || sum.Nodes[0].OutputBytes != 64 {
				t.Fatalf("%d spans, node rows = %+v", len(spans), sum.Nodes)
			}
		})
	}
}

// TestFinishWithoutLedgerStillTracesAndExports is the library session
// without WithLedger: no row, but the trace is finished and exported.
func TestFinishWithoutLedgerStillTracesAndExports(t *testing.T) {
	p := testPipeline(t)
	exp := &captureExporter{}
	f := Finisher{Exporter: exp}
	col, res := tracedRun(p, "run-1", true)
	sum, sampled, spans := f.Finish(p, col, res, time.Time{}, ledger.Meta{Outcome: ledger.OutcomeSucceeded})
	if sum.RunID != "" || sampled != SampleKept || len(spans) != 2 || len(exp.traces) != 1 {
		t.Fatalf("sum %+v sampled %q spans %d exports %d", sum, sampled, len(spans), len(exp.traces))
	}
}

// TestFinishWithoutTraceLandsTheRow is the library session with WithLedger
// alone: no collector, and the row still comes from the run's record, with
// its nodes and critical path and no trace ID.
func TestFinishWithoutTraceLandsTheRow(t *testing.T) {
	p := testPipeline(t)
	f := Finisher{Ledger: newLedger(t, ledger.Config{})}
	start := time.Now()
	res := &exec.RunResult{Start: start, Total: 3 * time.Millisecond, Nodes: []exec.NodeMetrics{
		{Name: "a", Start: start, End: start.Add(time.Millisecond), OutputBytes: 64, EncodedSize: 32},
		{Name: "b", Start: start.Add(time.Millisecond), End: start.Add(2 * time.Millisecond), OutputBytes: 16, EncodedSize: 8},
	}}
	sum, sampled, spans := f.Finish(p, nil, res, time.Time{}, ledger.Meta{RunID: "run-1", Outcome: ledger.OutcomeSucceeded})
	if sampled != "" || spans != nil || sum.TraceID != "" {
		t.Fatalf("an untraced run: sampled %q, %d spans, trace id %q", sampled, len(spans), sum.TraceID)
	}
	rows := f.Ledger.Runs(ledger.Filter{Pipeline: "p"})
	if len(rows) != 1 || !reflect.DeepEqual(rows[0], sum) {
		t.Fatalf("ledger holds %+v, Finish returned %+v", rows, sum)
	}
	if len(sum.Nodes) != 2 || !reflect.DeepEqual(sum.CritPath, []string{"a", "b"}) || sum.EncodedBytes != 40 ||
		sum.WallSeconds != 0.003 {
		t.Fatalf("row %+v", sum)
	}
}

// TestFinishAlertsOnVerdictTransitions: a pipeline's first verdict is
// silent, a changed verdict alerts, and further changes inside the cooldown
// are deduplicated, so the webhook sees exactly one transition.
func TestFinishAlertsOnVerdictTransitions(t *testing.T) {
	var (
		mu     sync.Mutex
		bodies []string
	)
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(b))
		mu.Unlock()
	}))
	defer hook.Close()

	p := testPipeline(t)
	// A one-run ledger window makes the verdict follow the latest outcome.
	f := Finisher{
		Ledger: newLedger(t, ledger.Config{Capacity: 1}),
		Alerts: alert.New(alert.Config{URL: hook.URL, Cooldown: time.Hour}),
	}
	for i, outcome := range []string{
		ledger.OutcomeSucceeded, // first verdict: silent
		ledger.OutcomeFailed,    // healthy -> failing: alerts
		ledger.OutcomeFailed,    // unchanged: nothing
		ledger.OutcomeSucceeded, // failing -> healthy: inside the cooldown
		ledger.OutcomeFailed,    // healthy -> failing: inside the cooldown
	} {
		runID := telemetry.RunID(int64(i + 1))
		col, res := tracedRun(p, runID, outcome == ledger.OutcomeSucceeded)
		f.Finish(p, col, res, time.Time{}, ledger.Meta{RunID: runID, Outcome: outcome, WallSeconds: 0.1})
	}
	f.Alerts.Close() // drains the queue

	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 1 || !strings.Contains(bodies[0], `"kind":"health_transition"`) ||
		!strings.Contains(bodies[0], `"summary":"pipeline p went failing (was healthy)"`) ||
		!strings.Contains(bodies[0], `"run_id":"run-000002"`) {
		t.Fatalf("webhook saw %q, want the one healthy -> failing transition of run 2", bodies)
	}
	if st := f.Alerts.Stats(); st.Delivered != 1 || st.Deduped != 2 {
		t.Fatalf("alert stats %+v, want 1 delivered and 2 deduped", st)
	}
}

// runnablePipeline is testPipeline with its base table in the store and,
// when breakB is set, a second node that fails at run time.
func runnablePipeline(t *testing.T, breakB bool) (*Pipeline, *core.Plan) {
	t.Helper()
	sales := table.New(table.NewSchema(table.Column{Name: "day", Type: table.Int}))
	for i := 0; i < 32; i++ {
		if err := sales.AppendRow(table.IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	store := storage.NewMemStore()
	if err := exec.SaveTable(store, "sales", sales); err != nil {
		t.Fatal(err)
	}
	bSQL := `SELECT day FROM a`
	if breakB {
		bSQL = `SELECT missing_col FROM a`
	}
	p, err := NewPipeline("p", []exec.NodeSpec{{Name: "a", SQL: `SELECT day FROM sales`}, {Name: "b", SQL: bSQL}}, store)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := p.Graph.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	return p, &core.Plan{Order: topo, Flagged: make([]bool, p.Graph.Len())}
}

// TestRunRecordsMetadataWithNobodyWatching: the execution metadata the
// optimizer plans on comes from the run's result, not from the event
// stream — a run with an empty RunEnv has no observer at all and still
// leaves every node's sizes and times in the store; a failed run leaves
// those of the nodes that completed.
func TestRunRecordsMetadataWithNobodyWatching(t *testing.T) {
	p, plan := runnablePipeline(t, false)
	if ctl := p.controller(RunEnv{}, plan); ctl.Obs != nil {
		t.Fatalf("an unwatched run got observer %T", ctl.Obs)
	}
	col := p.OpenTrace("run-000001", time.Time{}, telemetry.SpanContext{})
	if ctl := p.controller(RunEnv{Trace: col}, plan); ctl.Obs != obs.Observer(col) {
		t.Fatalf("a run watched only by its trace got observer %T", ctl.Obs)
	}
	res, err := p.Run(context.Background(), plan, RunEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("%d nodes ran, want 2", len(res.Nodes))
	}
	for _, n := range res.Nodes {
		o, ok := p.Metrics.Latest(n.Name)
		if !ok || o.OutputBytes != n.OutputBytes || o.EncodedBytes != n.EncodedSize || o.OutputBytes == 0 || o.EncodedBytes == 0 ||
			o.ReadTime != n.ReadTime || o.WriteTime != n.WriteTime || o.ComputeTime != n.ComputeTime ||
			o.ReadTime == 0 || o.WriteTime == 0 || o.When.IsZero() || o.RunID != "" {
			t.Fatalf("observation of %s = %+v, node metrics %+v", n.Name, o, n)
		}
	}
	if _, err := p.Run(context.Background(), plan, RunEnv{RunID: "run-000002"}); err != nil {
		t.Fatal(err)
	}
	if o, _ := p.Metrics.Latest("b"); o.RunID != "run-000002" {
		t.Fatalf("second run's observation = %+v, want its run ID", o)
	}

	p, plan = runnablePipeline(t, true)
	res, err = p.Run(context.Background(), plan, RunEnv{RunID: "run-000001"})
	if err == nil || res == nil || len(res.Nodes) != 1 {
		t.Fatalf("broken pipeline: err %v, result %+v; want node a's partial result with the error", err, res)
	}
	if o, ok := p.Metrics.Latest("a"); !ok || o.OutputBytes != res.Nodes[0].OutputBytes || o.RunID != "run-000001" {
		t.Fatalf("completed node's observation = %+v", o)
	}
	if o, ok := p.Metrics.Latest("b"); ok {
		t.Fatalf("failed node recorded an observation: %+v", o)
	}
}

// TestControllerDispatchesByObservedSeconds: the Controller's dispatch rank
// is the longest remaining path over each node's latest observed read,
// compute and blocking-write seconds; before any observation every node
// counts as 0 s and the rank is plan order.
func TestControllerDispatchesByObservedSeconds(t *testing.T) {
	p, err := NewPipeline("p", []exec.NodeSpec{
		{Name: "a", SQL: `SELECT day FROM sales`},
		{Name: "b", SQL: `SELECT day FROM sales`},
		{Name: "c", SQL: `SELECT day FROM b`},
	}, storage.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	plan := core.NewPlan([]dag.NodeID{0, 1, 2})
	if rank := p.controller(RunEnv{}, plan).Rank; !reflect.DeepEqual(rank, []int{0, 1, 2}) {
		t.Fatalf("first run's rank = %v, want plan order", rank)
	}
	ms := time.Millisecond
	p.Metrics.Record(metrics.Observation{Name: "a", ComputeTime: 25 * ms})
	// b alone computes less than a; its read and blocking write put the
	// path b → c ahead.
	p.Metrics.Record(metrics.Observation{Name: "b", ReadTime: 5 * ms, ComputeTime: 10 * ms, WriteTime: 5 * ms})
	p.Metrics.Record(metrics.Observation{Name: "c", ComputeTime: 10 * ms})
	if rank := p.controller(RunEnv{}, plan).Rank; !reflect.DeepEqual(rank, []int{1, 0, 2}) {
		t.Fatalf("rank = %v, want b, a, c", rank)
	}
}
