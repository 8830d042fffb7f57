package session

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/introspect/alert"
	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/storage"
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

// tracedRun opens a trace on p and plays one node through it.
func tracedRun(p *Pipeline, runID string) *telemetry.Collector {
	col := p.OpenTrace(runID, time.Time{}, telemetry.SpanContext{})
	col.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "a"})
	col.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "a", Bytes: 64, Elapsed: time.Millisecond})
	return col
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
// run without a collector (tracing off, or never executed) still lands its
// row, and tail sampling exports exactly the traces the ledger keeps.
func TestFinishLandsTheCallersOutcome(t *testing.T) {
	cases := []struct {
		name       string
		traced     bool
		tailSample bool
		meta       ledger.Meta
		rootStatus string
		sampled    string
	}{
		{name: "succeeded", traced: true,
			meta: ledger.Meta{Outcome: ledger.OutcomeSucceeded}, sampled: SampleKept},
		{name: "failed", traced: true,
			meta:       ledger.Meta{Outcome: ledger.OutcomeFailed, Err: "exec: node a: boom"},
			rootStatus: "exec: node a: boom", sampled: SampleKept},
		{name: "canceled", traced: true,
			meta:       ledger.Meta{Outcome: ledger.OutcomeCanceled, Err: "context canceled"},
			rootStatus: "context canceled", sampled: SampleKept},
		{name: "deadline mapped to canceled by the library", traced: true,
			meta:       ledger.Meta{Outcome: ledger.OutcomeCanceled, Err: "context deadline exceeded"},
			rootStatus: "context deadline exceeded", sampled: SampleKept},
		{name: "deadline mapped to failed by the gateway", traced: true,
			meta:       ledger.Meta{Outcome: ledger.OutcomeFailed, Err: "context deadline exceeded"},
			rootStatus: "context deadline exceeded", sampled: SampleKept},
		{name: "expired in the queue, never executed", traced: true,
			meta:       ledger.Meta{Outcome: ledger.OutcomeExpired},
			rootStatus: ledger.OutcomeExpired, sampled: SampleKept},
		{name: "tracing off still lands the row",
			meta: ledger.Meta{Outcome: ledger.OutcomeSucceeded, WallSeconds: 0.5}},
		{name: "canceled in the queue with tracing off",
			meta: ledger.Meta{Outcome: ledger.OutcomeCanceled}},
		{name: "tail sampling drops a healthy trace", traced: true, tailSample: true,
			meta: ledger.Meta{Outcome: ledger.OutcomeSucceeded}, sampled: SampleDropped},
		{name: "tail sampling keeps a failed trace", traced: true, tailSample: true,
			meta:       ledger.Meta{Outcome: ledger.OutcomeFailed, Err: "boom"},
			rootStatus: "boom", sampled: SampleKept},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testPipeline(t)
			exp := &captureExporter{}
			f := Finisher{Ledger: newLedger(t, ledger.Config{}), Exporter: exp, TailSample: tc.tailSample}
			var col *telemetry.Collector
			if tc.traced {
				col = tracedRun(p, "run-1")
			}
			tc.meta.RunID = "run-1"
			sum, sampled, spans := f.Finish(p, col, time.Time{}, tc.meta)

			rows := f.Ledger.Runs(ledger.Filter{Pipeline: "p"})
			if len(rows) != 1 {
				t.Fatalf("ledger holds %d rows for the pipeline, want 1", len(rows))
			}
			if row := rows[0]; row.Outcome != tc.meta.Outcome || row.Error != tc.meta.Err || row.RunID != "run-1" ||
				row.Outcome != sum.Outcome || row.WallSeconds != sum.WallSeconds {
				t.Fatalf("row %+v does not carry meta %+v", row, tc.meta)
			}
			if sampled != tc.sampled {
				t.Fatalf("sampled = %q, want %q", sampled, tc.sampled)
			}
			if wantExports := map[string]int{SampleKept: 1}[tc.sampled]; len(exp.traces) != wantExports {
				t.Fatalf("%d traces exported, want %d", len(exp.traces), wantExports)
			}
			if !tc.traced {
				if spans != nil || sum.TraceID != "" || len(sum.Nodes) != 0 {
					t.Fatalf("untraced run produced spans %v / summary %+v", spans, sum)
				}
				return
			}
			if !col.Finished() || len(spans) != 2 || spans[0].Err != tc.rootStatus {
				t.Fatalf("root status %q over %d spans, want %q over 2", spans[0].Err, len(spans), tc.rootStatus)
			}
			if len(sum.Nodes) != 1 || sum.Nodes[0].Node != "a" || sum.Nodes[0].OutputBytes != 64 {
				t.Fatalf("node rows = %+v", sum.Nodes)
			}
		})
	}
}

// TestFinishWithoutLedgerStillTracesAndExports is the library session
// without WithLedger: no row, but the trace is finished, remembered and
// exported.
func TestFinishWithoutLedgerStillTracesAndExports(t *testing.T) {
	p := testPipeline(t)
	exp := &captureExporter{}
	f := Finisher{Exporter: exp}
	sum, sampled, spans := f.Finish(p, tracedRun(p, "run-1"), time.Time{}, ledger.Meta{Outcome: ledger.OutcomeSucceeded})
	if sum.RunID != "" || sampled != SampleKept || len(spans) != 2 || len(exp.traces) != 1 {
		t.Fatalf("sum %+v sampled %q spans %d exports %d", sum, sampled, len(spans), len(exp.traces))
	}
	// The next run's dictionary reuse links back to the remembered span.
	col := p.OpenTrace("run-2", time.Time{}, telemetry.SpanContext{})
	col.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "a"})
	col.OnEvent(obs.Event{Kind: obs.KernelDone, Node: "a", DictReused: 1})
	col.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "a"})
	_, _, next := f.Finish(p, col, time.Time{}, ledger.Meta{Outcome: ledger.OutcomeSucceeded})
	if len(next) != 2 || len(next[1].Links) != 1 || next[1].Links[0].SpanID != spans[1].SpanID {
		t.Fatalf("run 2 node span links %+v, want one to run 1's span %v", next[1].Links, spans[1].SpanID)
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
		f.Finish(p, nil, time.Time{}, ledger.Meta{RunID: telemetry.RunID(int64(i + 1)), Outcome: outcome, WallSeconds: 0.1})
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
