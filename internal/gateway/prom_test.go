package gateway

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestPromExpositionGolden pins the full /metrics exposition — family
// naming, HELP/TYPE lines, label ordering and escaping, histogram
// bucket/sum/count layout — against a golden file, so exporter-convention
// regressions show up as a diff instead of a scrape-time surprise.
func TestPromExpositionGolden(t *testing.T) {
	p := newProm()
	p.refreshes.add(1, "acme", "beer", "succeeded")
	p.refreshes.add(2, "acme", "beer", "failed")
	// Label values with quotes, backslashes and newlines must be escaped
	// per the exposition format.
	p.refreshes.add(1, `ten"ant`, "pi\\pe\nline", "succeeded")
	p.triggers.add(3, "accepted")
	p.triggers.add(1, "queue_full")
	p.decodeBytes.add(4096, "acme", "beer")
	p.encodeBytes.add(1024, "acme", "beer")
	p.materialized.add(1<<20, "acme", "beer")
	p.evictions.add(1, "acme", "beer")
	p.kernelFallbacks.add(2, "acme", "beer")
	p.addGauge("scserve_queue_depth", "Refresh triggers currently queued.", nil,
		func(*snapshot) []gaugeSample { return []gaugeSample{{v: 2}} })
	p.addGauge("scserve_catalog_bytes", "Shared catalog residency by tenant.", []string{"tenant"},
		func(*snapshot) []gaugeSample {
			return []gaugeSample{
				{lvs: []string{"zeta"}, v: 1},
				{lvs: []string{"acme"}, v: 12345},
			}
		})
	p.anomalies.add(1, "beer", "wall_regression")
	p.eventsDropped.add(5, "acme", "beer")
	p.traceSampled.add(3, "dropped")
	p.traceSampled.add(1, "kept")
	p.refreshSeconds.observe(0.2, "acme", "beer")
	p.refreshSeconds.observe(75, "acme", "beer")
	p.queueWait.observe(0.004)
	p.mvReadSeconds.observe(0.03)

	var buf bytes.Buffer
	p.write(&buf, false, nil)

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from %s (run with -update to accept):\ngot:\n%s\nwant:\n%s",
			golden, firstDiff(buf.String(), string(want)), firstDiff(string(want), buf.String()))
	}
}

// TestPromOpenMetrics checks the negotiated OpenMetrics rendering:
// counter families drop the _total suffix in HELP/TYPE (but keep it on
// samples), exemplars attach to the bucket that counted the observation,
// and the exposition ends with # EOF.
func TestPromOpenMetrics(t *testing.T) {
	p := newProm()
	p.refreshes.add(1, "acme", "beer", "succeeded")
	p.refreshSeconds.observeExemplar(0.2, `trace_id="0af7651916cd43dd8448eb211c80319c"`, "acme", "beer")

	var buf bytes.Buffer
	p.write(&buf, true, nil)
	out := buf.String()

	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("OpenMetrics exposition must end with # EOF, got tail %q", out[max(0, len(out)-40):])
	}
	if !strings.Contains(out, "# TYPE scserve_refreshes counter\n") {
		t.Fatalf("counter family should be named without _total in OM mode:\n%s", out)
	}
	if !strings.Contains(out, `scserve_refreshes_total{tenant="acme",pipeline="beer",status="succeeded"} 1`) {
		t.Fatalf("counter sample keeps the _total suffix:\n%s", out)
	}
	wantEx := `le="0.25"} 1 # {trace_id="0af7651916cd43dd8448eb211c80319c"} 0.2`
	if !strings.Contains(out, wantEx) {
		t.Fatalf("exemplar missing from lowest counting bucket, want substring %q in:\n%s", wantEx, out)
	}
	// Classic mode must not leak exemplars.
	var classic bytes.Buffer
	p.write(&classic, false, nil)
	if strings.Contains(classic.String(), "trace_id") {
		t.Fatal("classic exposition must not carry exemplars")
	}
}

// firstDiff returns the first line of a that differs from b, for a readable
// failure message.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i, line := range al {
		if i >= len(bl) || line != bl[i] {
			return line
		}
	}
	return "(prefix of other)"
}

// TestRunCountersEqualLedgerColumns: the five per-run /metrics counters are
// added once per finished run from its ledger summary, so over any history
// — succeeded runs and a run canceled part-way — each equals the sum of
// its column over GET /v1/runs.
func TestRunCountersEqualLedgerColumns(t *testing.T) {
	gs := &gateStore{Store: storage.NewMemStore()}
	s, ts := newTestGateway(t, Config{NewStore: func(string) storage.Store { return gs }})
	if err := s.Register(PipelineSpec{
		Name: "p", Tenant: "t", Encoding: true,
		MVs:    pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		refreshOK(t, s, "p")
	}
	// A fourth run is canceled while parked on its first write: the node
	// that wrote has encoded and materialized, the rest never start.
	gs.block()
	r, err := s.Trigger("p")
	if err != nil {
		t.Fatal(err)
	}
	<-gs.parked
	canceled := make(chan error, 1)
	go func() {
		_, err := s.CancelRun(r.ID())
		canceled <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the cancel reach the run's context before the write returns
	gs.open()
	if err := <-canceled; err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/runs?pipeline=p")
	if err != nil {
		t.Fatal(err)
	}
	hist := decodeBody[runHistoryResponse](t, resp)
	if hist.Count != 4 {
		t.Fatalf("%d ledger rows, want 4", hist.Count)
	}
	if last := hist.Runs[0]; last.Outcome == ledger.OutcomeCanceled && (last.EncodedBytes == 0 || last.MaterializedBytes == 0) {
		t.Fatalf("canceled run's row lost what ran before the cancel: %+v", last)
	}
	var want [5]int64
	for _, row := range hist.Runs {
		want[0] += row.DecodedBytes
		want[1] += row.EncodedBytes
		want[2] += row.MaterializedBytes
		want[3] += row.Evictions
		want[4] += row.KernelFallbacks
	}
	if want[0] == 0 || want[1] == 0 || want[2] == 0 || want[3] == 0 {
		t.Fatalf("ledger columns decoded/encoded/materialized/evictions = %v: the comparison below would be vacuous", want[:4])
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for i, family := range []string{
		"scserve_decode_bytes_total", "scserve_encode_bytes_total", "scserve_materialized_bytes_total",
		"scserve_evictions_total", "scserve_kernel_fallbacks_total",
	} {
		var got float64 // a family no run ever added to has no series
		if _, rest, ok := strings.Cut(string(body), family+`{tenant="t",pipeline="p"} `); ok {
			line, _, _ := strings.Cut(rest, "\n")
			if got, err = strconv.ParseFloat(line, 64); err != nil {
				t.Fatalf("%s: bad value %q", family, line)
			}
		}
		if got != float64(want[i]) {
			t.Errorf("%s = %v, the ledger column sums to %d", family, got, want[i])
		}
	}
}
