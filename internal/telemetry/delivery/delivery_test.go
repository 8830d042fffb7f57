package delivery

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOfferRacingCloseDropsAndNeverPanics: producers keep offering while the
// queue closes under them. Every Offer that reported true reaches the
// worker, every later one is a reported drop, and none sends on the closed
// channel.
func TestOfferRacingCloseDropsAndNeverPanics(t *testing.T) {
	q := NewQueue[int](4)
	var received int64
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		for range q.Items() {
			received++
		}
	}()

	var accepted, dropped atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if q.Offer(i) {
					accepted.Add(1)
				} else {
					dropped.Add(1)
				}
			}
		}()
	}
	for accepted.Load() == 0 { // close mid-stream, not before the first item
		runtime.Gosched()
	}
	q.Close()
	q.Close() // harmless twice
	wg.Wait()
	<-workerDone

	if q.Offer(1) {
		t.Fatal("Offer after Close was accepted")
	}
	if received != accepted.Load() || accepted.Load()+dropped.Load() != 4*2000 {
		t.Fatalf("worker received %d, producers saw %d accepted and %d dropped of %d", received, accepted.Load(), dropped.Load(), 4*2000)
	}
}

func TestOfferOnFullQueueDrops(t *testing.T) {
	q := NewQueue[string](2)
	if !q.Offer("a") || !q.Offer("b") {
		t.Fatal("a queue of two refused its first two items")
	}
	if q.Offer("c") {
		t.Fatal("a full queue accepted a third item")
	}
	if got := <-q.Items(); got != "a" {
		t.Fatalf("received %q first, want a", got)
	}
	if !q.Offer("d") {
		t.Fatal("the queue refused an item after one was received")
	}
	q.Close()
	var rest []string
	for v := range q.Items() {
		rest = append(rest, v)
	}
	if len(rest) != 2 || rest[0] != "b" || rest[1] != "d" {
		t.Fatalf("Close lost queued items: drained %q, want [b d]", rest)
	}
}

// TestPostRetriesWhatCanRecover: 429, 5xx and network errors are retried
// with a doubling delay until the retry budget is spent; any other status
// is final on the first answer.
func TestPostRetriesWhatCanRecover(t *testing.T) {
	const base = 5 * time.Millisecond
	cases := []struct {
		name      string
		statuses  []int // answered in turn; the last repeats
		retries   int
		delivered bool
		attempts  int
	}{
		{name: "2xx at once", statuses: []int{204}, retries: 3, delivered: true, attempts: 1},
		{name: "429 then 503 then 200", statuses: []int{429, 503, 200}, retries: 3, delivered: true, attempts: 3},
		{name: "5xx until the budget is spent", statuses: []int{500}, retries: 2, attempts: 3},
		{name: "no retries allowed", statuses: []int{503}, retries: 0, attempts: 1},
		{name: "400 is final", statuses: []int{400, 200}, retries: 3, attempts: 1},
		{name: "404 is final", statuses: []int{404, 200}, retries: 3, attempts: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				n := int(calls.Add(1)) - 1
				body, _ := io.ReadAll(r.Body)
				if string(body) != `{"k":1}` || r.Method != http.MethodPost ||
					r.Header.Get("Content-Type") != "application/json" || r.Header.Get("X-Token") != "s3cret" {
					t.Errorf("attempt %d: %s body %q headers %v", n+1, r.Method, body, r.Header)
				}
				if n >= len(tc.statuses) {
					n = len(tc.statuses) - 1
				}
				w.WriteHeader(tc.statuses[n])
			}))
			defer srv.Close()

			start := time.Now()
			delivered, attempts := Post(srv.Client(), srv.URL, map[string]string{"X-Token": "s3cret"}, []byte(`{"k":1}`), tc.retries, base)
			elapsed := time.Since(start)
			if delivered != tc.delivered || attempts != tc.attempts || int(calls.Load()) != tc.attempts {
				t.Fatalf("delivered %v after %d attempts (%d requests), want %v after %d", delivered, attempts, calls.Load(), tc.delivered, tc.attempts)
			}
			// attempts-1 sleeps of base, 2*base, 4*base, ...
			if slept := base * time.Duration(1<<(tc.attempts-1)-1); elapsed < slept {
				t.Fatalf("%d attempts took %v, less than the %v of backoff between them", attempts, elapsed, slept)
			}
		})
	}

	t.Run("network error", func(t *testing.T) {
		srv := httptest.NewServer(http.NotFoundHandler())
		url := srv.URL
		srv.Close() // nothing listens: every attempt is refused
		// An own transport: no proxy from the environment.
		client := &http.Client{Transport: &http.Transport{}}
		delivered, attempts := Post(client, url, nil, []byte(`{}`), 2, time.Millisecond)
		if delivered || attempts != 3 {
			t.Fatalf("delivered %v after %d attempts against a closed port, want false after 3", delivered, attempts)
		}
	})

	t.Run("malformed endpoint", func(t *testing.T) {
		if delivered, attempts := Post(http.DefaultClient, "://nope", nil, nil, 5, time.Millisecond); delivered || attempts != 1 {
			t.Fatalf("delivered %v after %d attempts, want a request that cannot be built to give up at once", delivered, attempts)
		}
	})
}
