package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
)

// watchKeys are the NDJSON keys of a run's event stream that do not depend
// on timing, in the order the golden spells them: at, seq, step and the
// durations are left out.
var watchKeys = []string{
	"kind", "node", "bytes", "encoded", "flagged", "form",
	"lowered", "fallbacks", "chunks_skipped", "decodes_avoided",
	"join_build_rows", "join_probe_rows", "chunks_passed", "reencoded_chunks",
	"error",
}

// watchEvents reads a finished run's /events stream and projects every line
// onto watchKeys, dropping MemoryHighWater events (how many peaks a run
// reports depends on when its background writes finish). The lines come
// back sorted: the stream is compared as a multiset.
func watchEvents(t *testing.T, url, runID string) []string {
	t.Helper()
	resp, err := http.Get(url + "/v1/runs/" + runID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.UseNumber()
		var e map[string]any
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e["kind"] == "MemoryHighWater" {
			continue
		}
		var fields []string
		for _, k := range watchKeys {
			if v, ok := e[k]; ok {
				fields = append(fields, fmt.Sprintf("%s=%v", k, v))
			}
		}
		lines = append(lines, strings.Join(fields, " "))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return lines
}

// TestWatchersSeeGolden pins what the watchers of two refreshes of the
// 12-MV TPC-DS pipeline see: each run's /events stream and the
// run-attributed eviction timeline of /v1/state/catalog. One token runs the
// nodes in plan order and every MV fits the budget, so neither the flag set
// nor the event multiset depends on timings. The headroom makes each run's
// catalog far larger than its planned peak: an entry whose background write
// lags its last reader stays resident longer than planned, and must not
// crowd a later output out of the catalog into a blocking write.
func TestWatchersSeeGolden(t *testing.T) {
	s, ts := newTestGateway(t, Config{GlobalBudget: 64 << 20, Concurrency: 1, Headroom: 1000})
	if err := s.Register(TPCDSSpec("dw", "analytics", 0.01)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for i := 0; i < 2; i++ {
		st := refreshOK(t, s, "dw")
		fmt.Fprintf(&out, "# %s /events\n", st.ID)
		for _, line := range watchEvents(t, ts.URL, st.ID) {
			fmt.Fprintln(&out, line)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/state/catalog")
	if err != nil {
		t.Fatal(err)
	}
	cat := decodeBody[struct {
		Evictions []struct {
			RunID  string `json:"run_id"`
			Name   string `json:"name"`
			Bytes  int64  `json:"bytes"`
			Reason string `json:"reason"`
		} `json:"evictions"`
	}](t, resp)
	var evs []string
	for _, ev := range cat.Evictions {
		if ev.RunID != "" {
			evs = append(evs, fmt.Sprintf("%s name=%s bytes=%d reason=%s", ev.RunID, ev.Name, ev.Bytes, ev.Reason))
		}
	}
	sort.Strings(evs)
	fmt.Fprintln(&out, "# /v1/state/catalog evictions")
	for _, line := range evs {
		fmt.Fprintln(&out, line)
	}

	golden := filepath.Join("testdata", "watch.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if out.String() != string(want) {
		t.Fatalf("watchers' view drifted from %s\ngot line:  %s\nwant line: %s",
			golden, firstDiff(out.String(), string(want)), firstDiff(string(want), out.String()))
	}
}

// TestEventsStreamFollowsHeldRun opens a run's /events while the run is
// held at its first background write, reads the first line, then opens the
// gate: the NDJSON stream ends after the run's last event, with every event
// exactly once in Seq order, and the SSE form — asked for alone or among
// other media types — frames every record as "data: {…}\n\n".
func TestEventsStreamFollowsHeldRun(t *testing.T) {
	gs := &gateStore{Store: storage.NewMemStore()}
	s, ts := newTestGateway(t, Config{GlobalBudget: 8 << 20, NewStore: func(string) storage.Store { return gs }})
	if err := s.Register(PipelineSpec{
		Name: "beer", Tenant: "brewer",
		MVs:    pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}
	gs.block()
	defer gs.open() // a failing assertion must not leave Close waiting on the held run
	r, err := s.Trigger("beer")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gs.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the run never reached its first write")
	}

	client := &http.Client{Timeout: 10 * time.Second}
	open := func(accept string) *http.Response {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+"/v1/runs/"+r.ID()+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	ndjson := open("")
	defer ndjson.Body.Close()
	sses := []*http.Response{open("text/event-stream"), open("text/event-stream, */*;q=0.1")}
	for _, sse := range sses {
		defer sse.Body.Close()
	}
	lines := bufio.NewReader(ndjson.Body)
	first, err := lines.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	gs.open()
	rest, err := io.ReadAll(lines) // returns once the stream ends
	if err != nil {
		t.Fatal(err)
	}
	<-r.Done()

	logged, closed, _ := r.trace.Events(0)
	if !closed {
		t.Fatal("the run's event log is still open after Done")
	}
	got := strings.Split(strings.TrimSuffix(string(first)+string(rest), "\n"), "\n")
	if len(got) != len(logged) {
		t.Fatalf("NDJSON stream carried %d events, the run logged %d", len(got), len(logged))
	}
	for i, line := range got {
		var e struct {
			Kind  string `json:"kind"`
			RunID string `json:"run_id"`
			Seq   int64  `json:"seq"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if e.Seq != int64(i+1) || e.RunID != r.ID() || e.Kind != logged[i].Kind.String() {
			t.Fatalf("line %d = %s, want seq %d of %s", i, line, i+1, r.ID())
		}
	}
	for _, sse := range sses {
		accept := sse.Request.Header.Get("Accept")
		framed, err := io.ReadAll(sse.Body)
		if err != nil {
			t.Fatal(err)
		}
		records := strings.Split(string(framed), "\n\n")
		if records[len(records)-1] != "" {
			t.Fatalf("Accept %q: SSE stream does not end with a complete record: %q", accept, records[len(records)-1])
		}
		records = records[:len(records)-1]
		if len(records) != len(logged) {
			t.Fatalf("Accept %q: SSE stream carried %d records, the run logged %d", accept, len(records), len(logged))
		}
		for _, rec := range records {
			body, ok := strings.CutPrefix(rec, "data: ")
			if !ok || !json.Valid([]byte(body)) || !strings.HasPrefix(body, "{") {
				t.Fatalf("Accept %q: SSE record %q is not data: {…}", accept, rec)
			}
		}
	}
}

// TestCatalogStateCountsEachEvictionOnce polls /v1/state/catalog's report
// from another goroutine through 50 refreshes, on a server that retains
// only the newest 8 finished runs. No report may list an eviction twice;
// between runs, entry bytes must equal the pool's used bytes; and at the
// end every eviction of every run is counted exactly once, retained or
// not, by the report and by scserve_catalog_evictions_total alike.
func TestCatalogStateCountsEachEvictionOnce(t *testing.T) {
	const refreshes, retained = 50, 8
	s, ts := newTestGateway(t, Config{GlobalBudget: 8 << 20, LedgerCapacity: retained})
	if err := s.Register(PipelineSpec{
		Name: "beer", Tenant: "brewer",
		MVs:    pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}
	var phase atomic.Int64 // odd while a refresh is between Trigger and Done
	stop, polled := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				polled <- nil
				return
			default:
			}
			before := phase.Load()
			rep := s.CatalogState()
			idle := before%2 == 0 && phase.Load() == before
			seen := make(map[string]bool)
			for _, ev := range rep.Evictions {
				key := ev.RunID + " " + ev.Name + " " + ev.Reason
				if seen[key] {
					polled <- fmt.Errorf("eviction %q listed twice", key)
					return
				}
				seen[key] = true
			}
			if idle && rep.EntryBytes != rep.UsedBytes {
				polled <- fmt.Errorf("between runs: entry bytes %d, pool used %d", rep.EntryBytes, rep.UsedBytes)
				return
			}
		}
	}()
	// Every output a run kept in its catalog leaves it once, by release.
	var evicted, evictedRetained int64
	for i := 0; i < refreshes; i++ {
		phase.Add(1)
		st := refreshOK(t, s, "beer")
		phase.Add(1)
		evicted += int64(st.Flagged)
		if i >= refreshes-retained {
			evictedRetained += int64(st.Flagged)
		}
	}
	close(stop)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}

	rep := s.CatalogState()
	metric := scrapeGauge(t, ts.URL, "scserve_catalog_evictions_total")
	if evicted == 0 || rep.EvictionsSeen != evicted || int64(metric) != evicted {
		t.Fatalf("evictions seen = %d (report) / %g (metric), want %d", rep.EvictionsSeen, metric, evicted)
	}
	if int64(len(rep.Evictions)) != evictedRetained {
		t.Fatalf("timeline holds %d evictions, want the retained runs' %d", len(rep.Evictions), evictedRetained)
	}
	for i, ev := range rep.Evictions {
		if ev.Reason != obs.EvictRelease || ev.Pipeline != "beer" || ev.Tenant != "brewer" {
			t.Fatalf("eviction %+v", ev)
		}
		if i > 0 && ev.At.Before(rep.Evictions[i-1].At) {
			t.Fatalf("timeline not oldest first at %d", i)
		}
	}
}
