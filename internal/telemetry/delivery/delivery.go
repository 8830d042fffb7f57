// Package delivery is what the two push surfaces — the OTLP trace exporter
// and the alert webhook — do the same way: hand work to one worker through
// a bounded queue that drops instead of blocking the refresh finish path,
// and POST a payload with exponential-backoff retry.
package delivery

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"time"
)

// Queue is a bounded hand-off to a single worker. Offer never blocks, and
// Close may race with it: both run under one lock, so an item is either
// queued before the close or refused after it.
type Queue[T any] struct {
	mu     sync.Mutex
	closed bool
	ch     chan T
}

// NewQueue returns a queue holding at most size pending items.
func NewQueue[T any](size int) *Queue[T] {
	return &Queue[T]{ch: make(chan T, size)}
}

// Offer enqueues v, or reports false — a drop the caller counts — when the
// queue is full or closed.
func (q *Queue[T]) Offer(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	select {
	case q.ch <- v:
		return true
	default:
		return false
	}
}

// Items is the worker's receive side; it is closed by Close once the
// queued items have been received.
func (q *Queue[T]) Items() <-chan T { return q.ch }

// Close stops accepting items. Safe to call more than once.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
}

// Post sends payload as a JSON POST, retrying retriable failures (HTTP
// 429, 5xx and network errors) up to retries more times with the delay
// starting at base and doubling; any other status is final. It reports
// whether a 2xx answered and how many attempts were made; an undelivered
// payload is the caller's drop to count.
func Post(client *http.Client, endpoint string, headers map[string]string, payload []byte, retries int, base time.Duration) (delivered bool, attempts int) {
	for delay := base; ; delay *= 2 {
		attempts++
		ok, retriable := postOnce(client, endpoint, headers, payload)
		if ok || !retriable || attempts > retries {
			return ok, attempts
		}
		time.Sleep(delay)
	}
}

func postOnce(client *http.Client, endpoint string, headers map[string]string, payload []byte) (ok, retriable bool) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, endpoint, bytes.NewReader(payload))
	if err != nil {
		return false, false
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, true
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return true, false
	}
	return false, resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
}
