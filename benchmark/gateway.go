package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	sc "github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/gateway"
	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

// gateway-small: two tenants with one sf-1 pipeline each behind a real
// HTTP server, two closed-loop clients. Bytes are tiny, so fixed
// per-refresh costs dominate: planning, opt.Solve, admission, telemetry,
// ledger, HTTP. MV point reads run beside the refreshes.
const (
	gatewaySF      = 1
	gatewayTenants = 2 // = clients = scheduler tokens = HTTP connections
	readsPerRound  = 5
	readLimit      = 1000
	// The timed window alternates slices of the two closed-loop clients
	// with slices of direct naive refreshes of the same data, one at a
	// time, so that both sample the same stretches of host weather.
	// Each pair of slices ends with one more set-up, torn down at once:
	// set-up takes a tenth of a second, so its median needs many samples,
	// spread out so that one stall of the host cannot land in all of them.
	clientSlice = 1200 * time.Millisecond
	naiveSlice  = 400 * time.Millisecond
)

// gatewayCfg are the options the gateway runs a TPCDSSpec pipeline with
// (chunked tables, encoding, kernels; Config.ParallelScan stays off), for
// the bare session the gateway's overhead is measured against.
var gatewayCfg = sessionCfg{sf: gatewaySF, concurrency: 1, compressed: true}

// gwEnv is a running gateway with its tenants registered and warmed up.
type gwEnv struct {
	srv    *gateway.Server
	ts     *httptest.Server
	client *http.Client
	budget int64
	tables map[string]*table.Table // every tenant's base tables, as TPCDSSpec seeds them: the same
	mems   []*storage.MemStore
	stores []*meteredStore
}

func pipeName(tenant int) string { return fmt.Sprintf("pipe%d", tenant) }

// setupGateway is what setup_s measures on gateway-small: generate each
// tenant's data, start the server, register the pipelines and refresh each
// twice (metadata-collecting, then optimized).
func setupGateway(o options, rec *recorder, ops *tally) (*gwEnv, error) {
	ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: o.sf(gatewaySF), Seed: o.seed})
	if err != nil {
		return nil, err
	}
	env := &gwEnv{tables: ds.Tables}
	env.budget = 2 * gatewayTenants * ds.TotalBytes() // ample: every MV of every tenant fits
	byPipe := map[string]*meteredStore{}
	for i := 0; i < gatewayTenants; i++ {
		mem := sc.NewMemStore()
		env.mems = append(env.mems, mem)
		env.stores = append(env.stores, &meteredStore{inner: mem, isMV: isMVObject, rec: rec})
		byPipe[pipeName(i)] = env.stores[i]
	}
	srv, err := gateway.NewServer(gateway.Config{
		GlobalBudget: env.budget,
		Concurrency:  1,
		SchedTokens:  gatewayTenants,
		NewStore:     func(pipeline string) storage.Store { return byPipe[pipeline] },
	})
	if err != nil {
		return nil, err
	}
	env.srv = srv
	env.ts = httptest.NewServer(srv.Handler())
	env.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: gatewayTenants, MaxIdleConnsPerHost: gatewayTenants},
	}
	for i := 0; i < gatewayTenants; i++ {
		spec := gateway.TPCDSSpec(pipeName(i), fmt.Sprintf("tenant%d", i), 0)
		spec.Tables = env.tables
		if err := srv.Register(spec); err != nil {
			env.close()
			return nil, err
		}
		for j := 0; j < 2; j++ {
			if _, err := env.refresh(i); ops.op(err) {
				env.close()
				return nil, fmt.Errorf("warm-up refresh: %w", err)
			}
		}
	}
	return env, nil
}

func (e *gwEnv) close() {
	if e == nil {
		return
	}
	e.client.CloseIdleConnections()
	e.ts.Close()
	e.srv.Close()
}

// errRejected is a 429: the admission queue was full.
var errRejected = fmt.Errorf("gateway: 429 queue full")

// call makes one HTTP request, drains the body into out (when non-nil)
// and maps non-2xx to an error.
func (e *gwEnv) call(method, path string, out any) error {
	req, err := http.NewRequest(method, e.ts.URL+path, nil)
	if err != nil {
		return err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return errRejected
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, body)
	}
	if out != nil {
		return json.Unmarshal(body, out)
	}
	return nil
}

// refresh is request → every MV durable: POST …/refresh?wait=1.
func (e *gwEnv) refresh(tenant int) (time.Duration, error) {
	var st gateway.RunStatus
	t0 := time.Now()
	err := e.call("POST", "/v1/pipelines/"+pipeName(tenant)+"/refresh?wait=1", &st)
	d := time.Since(t0)
	if err == nil && st.State != gateway.StateSucceeded {
		err = fmt.Errorf("refresh of %s ended %s: %s", pipeName(tenant), st.State, st.Error)
	}
	return d, err
}

// readMV is one MV point read: GET …/mvs/ss_1999?limit=1000.
func (e *gwEnv) readMV(tenant int) (time.Duration, error) {
	var resp struct {
		Rows int `json:"rows"`
	}
	t0 := time.Now()
	err := e.call("GET", fmt.Sprintf("/v1/pipelines/%s/mvs/%s?limit=%d", pipeName(tenant), readMV, readLimit), &resp)
	d := time.Since(t0)
	if err == nil && resp.Rows != readLimit {
		err = fmt.Errorf("read of %s returned %d rows, want %d", readMV, resp.Rows, readLimit)
	}
	return d, err
}

// gwLoad is what the closed-loop clients measured.
type gwLoad struct {
	refreshS, readMS, readMB, writtenMB []float64
	rounds                              int // per client, the smaller
	rejected                            int
	window                              time.Duration
}

// add appends another stretch of load.
func (l *gwLoad) add(o gwLoad) {
	l.refreshS = append(l.refreshS, o.refreshS...)
	l.readMS = append(l.readMS, o.readMS...)
	l.readMB = append(l.readMB, o.readMB...)
	l.writtenMB = append(l.writtenMB, o.writtenMB...)
	l.rounds += o.rounds
	l.rejected += o.rejected
	l.window += o.window
}

// drive runs one closed-loop client per tenant until done: each round is a
// refresh-and-wait then readsPerRound MV reads, and a round, once begun,
// is finished, so bytes per round are exact. rec, when non-nil, gets a
// span per HTTP call.
func (e *gwEnv) drive(done func(round int, start time.Time) bool, rec *recorder, ops *tally) gwLoad {
	var mu sync.Mutex
	var wg sync.WaitGroup
	load := gwLoad{rounds: -1}
	start := time.Now()
	for tenant := 0; tenant < gatewayTenants; tenant++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine gwLoad
			local := &tally{}
			for round := 0; !done(round, start); round++ {
				run := tenant<<16 | round
				before := e.stores[tenant].snapshot()
				root := rec.begin("round", -1, run)
				if rec != nil { // the stores may hold a recorder the plain rounds must not feed
					e.stores[tenant].trace(root, run)
				}
				id := rec.begin("gateway.refresh", root, run)
				d, err := e.refresh(tenant)
				rec.end(id)
				if err == errRejected {
					mine.rejected++
				}
				if !local.op(err) {
					mine.refreshS = append(mine.refreshS, seconds(d))
				}
				for i := 0; i < readsPerRound; i++ {
					id := rec.begin("gateway.read_mv", root, run)
					d, err := e.readMV(tenant)
					rec.end(id)
					if !local.op(err) {
						mine.readMS = append(mine.readMS, 1e3*seconds(d))
					}
				}
				if rec != nil {
					e.stores[tenant].untrace()
				}
				rec.end(root)
				moved := e.stores[tenant].snapshot().sub(before)
				mine.readMB = append(mine.readMB, float64(moved.readBytes)/mb)
				mine.writtenMB = append(mine.writtenMB, float64(moved.writeBytes)/mb)
				mine.rounds = round + 1
			}
			mu.Lock()
			defer mu.Unlock()
			ops.add(local)
			load.refreshS = append(load.refreshS, mine.refreshS...)
			load.readMS = append(load.readMS, mine.readMS...)
			load.readMB = append(load.readMB, mine.readMB...)
			load.writtenMB = append(load.writtenMB, mine.writtenMB...)
			load.rejected += mine.rejected
			if load.rounds < 0 || mine.rounds < load.rounds {
				load.rounds = mine.rounds
			}
		}()
	}
	wg.Wait()
	load.window = time.Since(start)
	return load
}

// checkBudget counts a shared-catalog overrun as a failed operation.
func (e *gwEnv) checkBudget(ops *tally) float64 {
	var err error
	if st := e.srv.Stats(); st.PeakUsedBytes > e.budget {
		err = fmt.Errorf("gateway catalog peaked at %d bytes, budget %d", st.PeakUsedBytes, e.budget)
	}
	if ops.op(err) {
		return 1
	}
	return 0
}

// runGateway is the untraced pass of gateway-small.
func runGateway(ctx context.Context, name string, o options) (*result, error) {
	res := newResult(name, o, o.sf(gatewaySF))
	ops := &tally{}
	var setups []float64
	setup := func() (*gwEnv, error) {
		t0 := time.Now()
		env, err := setupGateway(o, nil, ops)
		setups = append(setups, seconds(time.Since(t0)))
		return env, err
	}
	env, err := setup()
	if err != nil {
		return nil, err
	}
	defer env.close()

	// The reference every tenant's MVs must equal: the naive refresh a
	// library user would run on the same data, which naive_wall_s times.
	ref, err := referenceStore(ctx, env.tables, ops)
	if err != nil {
		return nil, err
	}
	var load gwLoad
	var naiveWall, speedup []float64
	for start := time.Now(); ; {
		clients := env.drive(until(o.reps, 1, clientSlice.Seconds()), nil, ops)
		load.add(clients)
		var naive []float64
		slice := time.Now()
		for i, done := 0, until(o.reps, 1, naiveSlice.Seconds()); !done(i, slice); i++ {
			runtime.GC() // the clients' garbage is not the naive refresh's cost
			d, _, err := ref.refresh(ctx)
			if !ops.op(err) {
				naive = append(naive, seconds(d))
			}
		}
		naiveWall = append(naiveWall, naive...)
		if len(naive) > 0 && len(clients.refreshS) > 0 {
			speedup = append(speedup, median(naive)/median(clients.refreshS))
		}
		extra, err := setup()
		if err != nil {
			return nil, err
		}
		extra.close()
		if o.reps > 0 || time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	if len(speedup) == 0 || len(load.readMS) == 0 {
		return nil, fmt.Errorf("%s: no round succeeded: %v", name, ops.firstErr)
	}
	res.Reps = load.rounds
	env.checkBudget(ops)
	for tenant := 0; tenant < gatewayTenants; tenant++ {
		checkMVs(env.mems[tenant], ref.mem, pipeName(tenant)+" vs direct naive run", ops)
	}

	res.set("setup_s", setups...)
	res.set("refresh_wall_s", load.refreshS...)
	res.set("naive_wall_s", naiveWall...)
	res.set("speedup_x", speedup...)
	res.set("mv_read_ms", load.readMS...)
	res.set("storage_read_mb", load.readMB...)
	res.set("storage_written_mb", load.writtenMB...)
	res.finish(ops)
	return res, nil
}

// traceGateway is the traced pass of gateway-small: rounds with the
// stores untraced, then traced, then a bare sc.Refresher on the same
// data with the gateway's options, whose refreshes give the refresh-derived
// layer metrics and the base of gateway.overhead_ms.
func traceGateway(ctx context.Context, name string, o options) (*result, error) {
	res := newResult(name, o, o.sf(gatewaySF))
	ops := &tally{}
	rec := newRecorder()
	env, err := setupGateway(o, rec, ops)
	if err != nil {
		return nil, err
	}
	defer env.close()

	rounds := until(o.reps, minRounds, o.seconds/4)
	plain := env.drive(rounds, nil, ops)
	traced := env.drive(rounds, rec, ops)
	if len(plain.refreshS) == 0 || len(traced.refreshS) == 0 {
		return nil, fmt.Errorf("%s: no round succeeded: %v", name, ops.firstErr)
	}
	res.Reps = traced.rounds

	var rtt []float64
	for i := 0; i < 200; i++ {
		d, err := rec.time("gateway.http_rtt", -1, -1, func() error { return env.call("GET", "/v1/pipelines", nil) })
		if !ops.op(err) {
			rtt = append(rtt, 1e6*seconds(d))
		}
	}
	overrun := env.checkBudget(ops)
	st := env.srv.Stats()

	// Bare sessions on the tenants' data: with the gateway's options, then
	// with tracing and the ledger on top.
	budget := env.budget / gatewayTenants
	bare, err := newSession(env.tables, gatewayCfg, budget, rec)
	if err != nil {
		return nil, err
	}
	naive, err := newSession(env.tables, gatewayCfg, 0, nil)
	if err != nil {
		return nil, err
	}
	if err := bare.warmUp(ctx, ops); err != nil {
		return nil, err
	}
	if err := traceSession(ctx, bare, naive, rec, res, ops); err != nil {
		return nil, err
	}
	bareS, watchedS, appendUS, err := watchOverhead(ctx, env.tables, budget, rec, ops)
	if err != nil {
		return nil, err
	}

	res.set("gateway.overhead_ms", 1e3*(median(plain.refreshS)-median(bareS)))
	res.set("gateway.http_rtt_us", rtt...)
	res.set("gateway.refresh_p90_s", percentile(plain.refreshS, 0.9))
	res.set("gateway.refreshes_per_s", float64(len(plain.refreshS))/seconds(plain.window))
	res.set("gateway.rejected_429", float64(plain.rejected+traced.rejected))
	res.set("gateway.queue_expired", float64(st.Expired))
	res.set("telemetry.overhead_frac", median(watchedS)/median(bareS)-1)
	res.set("ledger.append_us", appendUS...)
	// The gateway's own numbers replace the bare session's where the
	// server reports them: the shared catalog and the traced rounds.
	res.set("memcat.peak_frac", ratio(float64(st.PeakUsedBytes), float64(env.budget)))
	res.set("memcat.catalog_overrun", overrun)
	res.set("trace.overhead_frac", median(traced.refreshS)/median(plain.refreshS)-1)

	if err := replayLayers(ctx, env.tables, env.mems[0], rec, res, ops, o); err != nil {
		return nil, err
	}
	res.set("process.peak_rss_mb", peakRSSMB())
	res.Spans = rec.spans
	res.finish(ops)
	return res, nil
}

// watchRefreshes is how many refreshes each side of the telemetry
// comparison runs.
const watchRefreshes = 20

// watchOverhead alternates refreshes of two bare sessions on the same
// data, one with WithTelemetry + WithLedger, and replays the ledger's
// Summarize + Append on the watched session's last trace.
func watchOverhead(ctx context.Context, tables map[string]*table.Table, budget int64, rec *recorder, ops *tally) (bareS, watchedS, appendUS []float64, err error) {
	bare, err := newSession(tables, gatewayCfg, budget, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	watched, err := newSession(tables, gatewayCfg, budget, nil, sc.WithTelemetry(nil), sc.WithLedger(""))
	if err != nil {
		return nil, nil, nil, err
	}
	defer watched.ref.Close()
	for i := 0; i < watchRefreshes+2; i++ {
		for _, side := range []struct {
			ref  *sc.Refresher
			name string
			out  *[]float64
		}{{bare.ref, "refresh.bare", &bareS}, {watched.ref, "refresh.watched", &watchedS}} {
			d, err := rec.time(side.name, -1, -1, func() error { _, err := side.ref.Refresh(ctx); return err })
			if ops.op(err) {
				return nil, nil, nil, err
			}
			if i >= 2 { // the first two refreshes collect metadata and warm up
				*side.out = append(*side.out, seconds(d))
			}
		}
	}
	trace := watched.ref.LastTrace()
	if trace == nil {
		return nil, nil, nil, fmt.Errorf("watched session kept no trace")
	}
	led, err := ledger.New(ledger.Config{})
	if err != nil {
		return nil, nil, nil, err
	}
	defer led.Close()
	for i := 0; i < replayRepeats; i++ {
		d, _ := rec.time("ledger.append", -1, -1, func() error {
			led.Append(ledger.Summarize(trace.Spans, nil, ledger.Meta{
				RunID: fmt.Sprintf("replay-%d", i), Pipeline: "replay", Outcome: ledger.OutcomeSucceeded,
			}))
			return nil
		})
		appendUS = append(appendUS, 1e6*seconds(d))
	}
	return bareS, watchedS, appendUS, nil
}
