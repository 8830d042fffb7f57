package telemetry

import (
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/obs"
)

// follow reads c's event log from index from the way a /events stream does:
// replay, then wait for more until the log closes. It returns the events it
// saw, or fails the test when the log stays open past the deadline.
func follow(t *testing.T, c *Collector, from int) []obs.Event {
	t.Helper()
	var got []obs.Event
	deadline := time.After(10 * time.Second)
	for {
		events, closed, wake := c.Events(from)
		got = append(got, events...)
		from += len(events)
		if closed {
			return got
		}
		select {
		case <-wake:
		case <-deadline:
			t.Errorf("follower still waiting after %d events", len(got))
			return got
		}
	}
}

// TestEventLogFollowerJoiningMidRun: a follower that starts while the run
// is emitting replays what is logged and follows the rest, seeing every
// event exactly once, in Seq order, and its stream ends at Finish.
func TestEventLogFollowerJoiningMidRun(t *testing.T) {
	const n = 2000
	c := NewCollector(CollectorConfig{RunID: "run-1"})
	emit := obs.WithRun("run-1", c)
	for i := 0; i < n/4; i++ {
		emit.OnEvent(obs.Event{Kind: obs.Materialized, Node: "a", Bytes: int64(i)})
	}
	done := make(chan []obs.Event)
	go func() { done <- follow(t, c, 0) }()
	for i := n / 4; i < n; i++ {
		emit.OnEvent(obs.Event{Kind: obs.Materialized, Node: "a", Bytes: int64(i)})
	}
	c.Finish(time.Time{}, "")
	got := <-done
	if len(got) != n {
		t.Fatalf("follower saw %d events, want %d", len(got), n)
	}
	for i, e := range got {
		if e.Seq != int64(i+1) || e.Bytes != int64(i) || e.RunID != "run-1" {
			t.Fatalf("event %d = seq %d bytes %d run %q", i, e.Seq, e.Bytes, e.RunID)
		}
	}
}

// TestEventLogCapCountsDrops: events past eventLogCap are counted, not
// kept.
func TestEventLogCapCountsDrops(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	for i := 0; i < eventLogCap+5; i++ {
		c.OnEvent(obs.Event{Kind: obs.MemoryHighWater, Bytes: int64(i)})
	}
	events, _, _ := c.Events(0)
	if len(events) != eventLogCap || events[eventLogCap-1].Bytes != eventLogCap-1 {
		t.Fatalf("log keeps %d events, want the first %d", len(events), eventLogCap)
	}
	if d := c.EventsDropped(); d != 5 {
		t.Fatalf("dropped %d, want 5", d)
	}
}

// TestEventLogFinishEndsFollowers: followers waiting on an idle log wake at
// Finish and end their streams; events after Finish are ignored, as a
// finished trace ignores them.
func TestEventLogFinishEndsFollowers(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	c.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "a"})
	const followers = 4
	done := make(chan int, followers)
	for i := 0; i < followers; i++ {
		go func() { done <- len(follow(t, c, 0)) }()
	}
	// Let the followers drain the replay and park on the wake channel.
	time.Sleep(10 * time.Millisecond)
	c.Finish(time.Time{}, "")
	for i := 0; i < followers; i++ {
		if n := <-done; n != 1 {
			t.Fatalf("follower saw %d events, want 1", n)
		}
	}
	c.OnEvent(obs.Event{Kind: obs.NodeStart, Node: "late"})
	events, closed, wake := c.Events(0)
	if len(events) != 1 || !closed || wake != nil {
		t.Fatalf("after Finish: %d events, closed %v, wake %v; want 1, true, nil", len(events), closed, wake)
	}
	if c.EventsDropped() != 0 {
		t.Fatal("an event after Finish counted as dropped")
	}
}
