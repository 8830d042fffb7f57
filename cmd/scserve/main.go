// Command scserve runs the multi-tenant refresh gateway: an HTTP server
// hosting many named MV pipelines over one shared Memory Catalog budget.
//
// Usage:
//
//	scserve [-addr :8080] [-budget-mb 256] [-slice-mb 0] [-queue 64]
//	        [-queue-timeout 30s] [-headroom 1.25] [-concurrency 2]
//	        [-data DIR] [-trace-otlp URL] [-trace-file PATH]
//	        [-ledger-file PATH] [-ledger-cap 512] [-tail-sample]
//	        [-slo-seconds 60] [-alert-webhook URL] [-alert-cooldown 5m]
//	        [-pprof ADDR]
//
// Pipelines are registered and refreshed over the /v1 HTTP API; see the
// README's Serving section for the routes and an example curl session.
// With -data, each pipeline's tables live under DIR/<pipeline>/ on the
// filesystem; the default keeps them in memory.
//
// Every finished run lands in the run ledger (GET /v1/runs); per-pipeline
// health — SLO attainment, learned baselines, top regressions — is served
// at /v1/pipelines/{name}/health. -ledger-file persists run summaries as
// NDJSON and replays them on restart so baselines survive. -tail-sample
// keeps exported traces only for anomalous, failed, or slow runs.
//
// Live state introspection is always on: GET /v1/state/catalog (Memory
// Catalog residents, codec mix, eviction timeline), GET /v1/state/sched
// (token pool, reservations, admission queue with blocking reasons) and
// GET /v1/pipelines/{name}/explain (per-MV flag decisions with flip
// conditions). -alert-webhook pushes ledger anomalies and health-verdict
// transitions to that URL as JSON POSTs — bounded queue, retried with
// backoff, deduplicated per (pipeline, kind) within -alert-cooldown —
// instead of waiting for /metrics to be scraped.
//
// Every refresh run is traced (root span, queue-admission span, one span
// per executed node); traces are served at /v1/runs/{id}/trace and
// exported with -trace-otlp (an OTLP/HTTP JSON collector endpoint, e.g.
// http://localhost:4318/v1/traces) or -trace-file (NDJSON of OTLP
// payloads, "-" = stdout). -pprof serves net/http/pprof on a separate
// debug listener (keep it off public interfaces).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	sc "github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	budgetMB := flag.Int64("budget-mb", 256, "shared Memory Catalog budget (MiB)")
	sliceMB := flag.Int64("slice-mb", 0, "default per-tenant budget slice (MiB, 0 = whole budget)")
	queue := flag.Int("queue", 64, "max queued refresh triggers")
	queueTimeout := flag.Duration("queue-timeout", 30*time.Second, "queued trigger deadline")
	headroom := flag.Float64("headroom", 1.25, "reservation headroom over the plan's peak footprint")
	concurrency := flag.Int("concurrency", 2, "worker pool per refresh")
	dataDir := flag.String("data", "", "store pipeline tables under this directory (default: in memory)")
	traceOTLP := flag.String("trace-otlp", "", "export run traces to this OTLP/HTTP JSON endpoint")
	traceFile := flag.String("trace-file", "", `append run traces to this file as OTLP JSON lines ("-" = stdout)`)
	ledgerFile := flag.String("ledger-file", "", "persist per-run ledger summaries to this NDJSON file (replayed on start)")
	ledgerCap := flag.Int("ledger-cap", 512, "in-memory run ledger capacity")
	tailSample := flag.Bool("tail-sample", false, "export only anomalous, failed, or slow run traces")
	sloSeconds := flag.Float64("slo-seconds", 60, "refresh latency SLO used by /health and tail sampling")
	alertWebhook := flag.String("alert-webhook", "", "POST anomaly and health-transition alerts to this URL")
	alertCooldown := flag.Duration("alert-cooldown", 5*time.Minute, "alert dedup window per (pipeline, kind)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")
	flag.Parse()

	cfg := sc.GatewayConfig{
		GlobalBudget:   *budgetMB << 20,
		DefaultSlice:   *sliceMB << 20,
		QueueLimit:     *queue,
		QueueTimeout:   *queueTimeout,
		Headroom:       *headroom,
		Concurrency:    *concurrency,
		LedgerPath:     *ledgerFile,
		LedgerCapacity: *ledgerCap,
		TailSample:     *tailSample,
		SLOSeconds:     *sloSeconds,
		AlertWebhook:   *alertWebhook,
		AlertCooldown:  *alertCooldown,
	}
	if *alertWebhook != "" {
		log.Printf("scserve: alerting to %s (cooldown %s)", *alertWebhook, *alertCooldown)
	}
	if *traceOTLP != "" && *traceFile != "" {
		fmt.Fprintln(os.Stderr, "scserve: -trace-otlp and -trace-file are mutually exclusive")
		os.Exit(2)
	}
	switch {
	case *traceOTLP != "":
		exp, err := telemetry.NewOTLP(telemetry.OTLPConfig{Endpoint: *traceOTLP, Service: "scserve"})
		if err != nil {
			fmt.Fprintln(os.Stderr, "scserve:", err)
			os.Exit(2)
		}
		defer exp.Close()
		cfg.TraceExporter = exp
		log.Printf("scserve: exporting traces to %s", *traceOTLP)
	case *traceFile != "":
		exp, err := telemetry.NewFileExporter(*traceFile, "scserve")
		if err != nil {
			fmt.Fprintln(os.Stderr, "scserve:", err)
			os.Exit(2)
		}
		defer exp.Close()
		cfg.TraceExporter = exp
		log.Printf("scserve: writing traces to %s", *traceFile)
	}
	if *pprofAddr != "" {
		// The blank net/http/pprof import registers its handlers on
		// http.DefaultServeMux; serve that mux on the debug listener only —
		// the gateway API uses its own mux and never exposes profiling.
		go func() {
			log.Printf("scserve: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("scserve: pprof listener: %v", err)
			}
		}()
	}
	if *dataDir != "" {
		root := *dataDir
		cfg.NewStore = func(pipeline string) storage.Store {
			st, err := storage.NewFSStore(filepath.Join(root, pipeline))
			if err != nil {
				log.Printf("scserve: pipeline %q: %v; falling back to memory", pipeline, err)
				return storage.NewMemStore()
			}
			return st
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	log.Printf("scserve: listening on %s (budget %d MiB, queue %d, timeout %s)",
		*addr, *budgetMB, *queue, *queueTimeout)
	if err := sc.Serve(ctx, *addr, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "scserve: %v\n", err)
		os.Exit(1)
	}
	log.Printf("scserve: shut down")
}
