// Package alert pushes state changes instead of waiting to be scraped: a
// webhook notifier for health-verdict transitions and ledger anomalies.
// Events enqueue onto a bounded queue (full or closed queue = drop + count)
// and a single worker posts them with exponential-backoff retry — both from
// telemetry/delivery, shared with the OTLP exporter; a per-(pipeline, kind)
// dedup window suppresses repeats inside a cooldown so a flapping pipeline
// produces one alert per episode, not one per run.
package alert

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shortcircuit-db/sc/internal/telemetry/delivery"
)

// Event is one alert. Kind is the dedup axis within a pipeline: an
// anomaly kind ("wall_regression", "eviction_storm", ...) or
// "health_transition".
type Event struct {
	At       time.Time `json:"at"`
	Pipeline string    `json:"pipeline"`
	Kind     string    `json:"kind"`
	Severity string    `json:"severity"` // "warning" | "critical" | "info"
	Summary  string    `json:"summary"`
	RunID    string    `json:"run_id,omitempty"`
	// Verdict transitions carry the edge; anomalies carry the numbers.
	FromVerdict string  `json:"from_verdict,omitempty"`
	ToVerdict   string  `json:"to_verdict,omitempty"`
	Node        string  `json:"node,omitempty"`
	Observed    float64 `json:"observed,omitempty"`
	Baseline    float64 `json:"baseline,omitempty"`
	Sigma       float64 `json:"sigma,omitempty"`
}

// Config configures a Notifier.
type Config struct {
	// URL receives one POST per event, body = the Event as JSON.
	URL string
	// Cooldown is the per-(pipeline, kind) dedup window: a repeat inside
	// it is suppressed and counted. Default 5m; negative disables dedup.
	Cooldown time.Duration
	// Now overrides the clock (tests). Nil = time.Now.
	Now func() time.Time
}

// How the notifier queues and retries. Nothing ever set these, so they are
// constants.
const (
	queueSize  = 128                    // pending events; beyond it new events are dropped and counted
	maxRetries = 3                      // re-attempts after a retriable failure (429/5xx/network)
	retryBase  = 250 * time.Millisecond // first backoff delay, doubled per attempt
	timeout    = 5 * time.Second        // per HTTP attempt
)

// Stats are the notifier's lifetime delivery counters, exported as
// scserve_alerts_* gauges.
type Stats struct {
	Delivered int64 `json:"delivered"`
	Dropped   int64 `json:"dropped"` // queue full or retries exhausted
	Deduped   int64 `json:"deduped"` // suppressed inside a cooldown window
	Retries   int64 `json:"retries"` // re-attempts after retriable failures
}

// Notifier delivers Events to a webhook. Construct with New; Close drains.
type Notifier struct {
	cfg       Config
	client    *http.Client
	retries   int
	retryBase time.Duration
	queue     *delivery.Queue[Event]
	done      chan struct{}

	mu   sync.Mutex
	last map[string]time.Time // (pipeline \x00 kind) -> last enqueue

	delivered atomic.Int64
	dropped   atomic.Int64
	deduped   atomic.Int64
	retried   atomic.Int64
}

// New builds a notifier and starts its delivery worker.
func New(cfg Config) *Notifier { return newNotifier(cfg, queueSize, maxRetries, retryBase) }

// newNotifier is New with the queue and retry constants as parameters.
func newNotifier(cfg Config, slots, retries int, base time.Duration) *Notifier {
	if cfg.Cooldown == 0 {
		cfg.Cooldown = 5 * time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	n := &Notifier{
		cfg:       cfg,
		client:    &http.Client{Timeout: timeout},
		retries:   retries,
		retryBase: base,
		queue:     delivery.NewQueue[Event](slots),
		done:      make(chan struct{}),
		last:      make(map[string]time.Time),
	}
	go n.worker()
	return n
}

// Notify enqueues an event without blocking. Repeats of the same
// (pipeline, kind) inside the cooldown are suppressed; a full queue, or one
// already closed, drops the event. Both outcomes are counted, never waited
// on — Notify is called from the refresh finish path.
func (n *Notifier) Notify(ev Event) {
	if n.cfg.Cooldown > 0 {
		key := ev.Pipeline + "\x00" + ev.Kind
		now := n.cfg.Now()
		n.mu.Lock()
		if prev, ok := n.last[key]; ok && now.Sub(prev) < n.cfg.Cooldown {
			n.mu.Unlock()
			n.deduped.Add(1)
			return
		}
		n.last[key] = now
		n.mu.Unlock()
	}
	if ev.At.IsZero() {
		ev.At = n.cfg.Now()
	}
	if !n.queue.Offer(ev) {
		n.dropped.Add(1)
	}
}

// Stats returns the lifetime delivery counters.
func (n *Notifier) Stats() Stats {
	return Stats{
		Delivered: n.delivered.Load(),
		Dropped:   n.dropped.Load(),
		Deduped:   n.deduped.Load(),
		Retries:   n.retried.Load(),
	}
}

// Close stops accepting events, flushes the queue, and waits for the
// worker to drain. Safe to call more than once.
func (n *Notifier) Close() {
	n.queue.Close()
	<-n.done
}

func (n *Notifier) worker() {
	defer close(n.done)
	for ev := range n.queue.Items() {
		n.send(ev)
	}
}

// send posts one event; one that stays undelivered counts as a drop.
func (n *Notifier) send(ev Event) {
	payload, err := json.Marshal(ev)
	if err != nil {
		n.dropped.Add(1)
		return
	}
	ok, attempts := delivery.Post(n.client, n.cfg.URL, nil, payload, n.retries, n.retryBase)
	n.retried.Add(int64(attempts - 1))
	if ok {
		n.delivered.Add(1)
	} else {
		n.dropped.Add(1)
	}
}
