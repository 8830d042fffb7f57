package alert

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fast is New with millisecond backoff, so retry tests don't wait out the
// production delays.
func fast(cfg Config) *Notifier { return newNotifier(cfg, queueSize, maxRetries, time.Millisecond) }

// A flaky server fails the first k attempts per event, then succeeds:
// delivery must survive retriable failures via backoff retries.
func TestRetryAfterFlakyServer(t *testing.T) {
	var attempts atomic.Int64
	var mu sync.Mutex
	var bodies []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(b))
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	n := fast(Config{URL: srv.URL})
	n.Notify(Event{Pipeline: "tpcds", Kind: "wall_regression", Summary: "q9 3.2x over baseline"})
	n.Close()

	st := n.Stats()
	if st.Delivered != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want 1 delivered, 0 dropped", st)
	}
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (one per 503)", st.Retries)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 1 {
		t.Fatalf("server saw %d successful posts, want 1", len(bodies))
	}
	for _, want := range []string{`"pipeline":"tpcds"`, `"kind":"wall_regression"`, `"at":`} {
		if !contains(bodies[0], want) {
			t.Errorf("payload %s missing %s", bodies[0], want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Exhausting the retries drops the event; a 4xx drops it immediately.
func TestRetriesExhaustAndNonRetriable(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	n := newNotifier(Config{URL: srv.URL}, queueSize, 2, time.Millisecond)
	n.Notify(Event{Pipeline: "p", Kind: "k1"})
	n.Close()
	if got := n.Stats(); got.Delivered != 0 || got.Dropped != 1 || got.Retries != 2 {
		t.Fatalf("stats after exhausted retries = %+v", got)
	}
	if attempts.Load() != 3 {
		t.Fatalf("server saw %d attempts, want 3 (initial + 2 retries)", attempts.Load())
	}

	attempts.Store(0)
	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer srv2.Close()
	n2 := fast(Config{URL: srv2.URL})
	n2.Notify(Event{Pipeline: "p", Kind: "k1"})
	n2.Close()
	if got := n2.Stats(); got.Dropped != 1 || got.Retries != 0 {
		t.Fatalf("stats after 400 = %+v, want immediate drop, no retries", got)
	}
	if attempts.Load() != 1 {
		t.Fatalf("server saw %d attempts on a 400, want 1", attempts.Load())
	}
}

// Repeats of the same (pipeline, kind) inside the cooldown are
// suppressed; a different kind, a different pipeline, or an expired
// window all deliver.
func TestDedupCooldown(t *testing.T) {
	var got atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Add(1)
	}))
	defer srv.Close()

	clock := time.Unix(1700000000, 0)
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}

	n := fast(Config{URL: srv.URL, Cooldown: time.Minute, Now: now})

	n.Notify(Event{Pipeline: "a", Kind: "wall_regression"})
	n.Notify(Event{Pipeline: "a", Kind: "wall_regression"}) // deduped
	n.Notify(Event{Pipeline: "a", Kind: "eviction_storm"})  // different kind
	n.Notify(Event{Pipeline: "b", Kind: "wall_regression"}) // different pipeline
	advance(30 * time.Second)
	n.Notify(Event{Pipeline: "a", Kind: "wall_regression"}) // still inside window
	advance(31 * time.Second)
	n.Notify(Event{Pipeline: "a", Kind: "wall_regression"}) // window expired
	n.Close()

	st := n.Stats()
	if st.Delivered != 4 || st.Deduped != 2 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want 4 delivered / 2 deduped / 0 dropped", st)
	}
	if got.Load() != 4 {
		t.Fatalf("server received %d posts, want 4", got.Load())
	}
}

// A full queue drops new events instead of blocking the caller, and the
// drops are counted.
func TestBoundedQueueDrops(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()

	// Cooldown -1 disables dedup, so every event competes for the two slots.
	n := newNotifier(Config{URL: srv.URL, Cooldown: -1}, 2, maxRetries, time.Millisecond)

	// One event occupies the worker (blocked on the server); the next two
	// fill the queue; everything after must drop without blocking.
	for i := 0; i < 8; i++ {
		n.Notify(Event{Pipeline: "p", Kind: "k"})
	}
	// The first event may or may not have been picked up by the worker
	// yet, so 5 or 6 of the 8 drop.
	deadline := time.Now().Add(2 * time.Second)
	for n.Stats().Dropped < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	dropped := n.Stats().Dropped
	if dropped < 5 || dropped > 6 {
		t.Fatalf("dropped = %d, want 5 or 6 with queue size 2", dropped)
	}
	close(release)
	n.Close()
	if st := n.Stats(); st.Delivered+st.Dropped != 8 {
		t.Fatalf("delivered %d + dropped %d != 8 notified", st.Delivered, st.Dropped)
	}
}

// Notify after Close is a counted drop, not a send on a closed channel;
// and a Close racing Notify leaves every event either delivered or dropped.
func TestNotifyAfterCloseDrops(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()

	n := fast(Config{URL: srv.URL, Cooldown: -1})
	n.Notify(Event{Pipeline: "p", Kind: "k"})
	n.Close()
	n.Notify(Event{Pipeline: "p", Kind: "k"})
	n.Close()
	if st := n.Stats(); st.Delivered != 1 || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want 1 delivered before Close and 1 dropped after", st)
	}

	n = fast(Config{URL: srv.URL, Cooldown: -1})
	const senders, each = 4, 50
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				n.Notify(Event{Pipeline: "p", Kind: "k"})
			}
		}()
	}
	n.Close()
	wg.Wait()
	if st := n.Stats(); st.Delivered+st.Dropped != senders*each {
		t.Fatalf("delivered %d + dropped %d != %d notified", st.Delivered, st.Dropped, senders*each)
	}
}
