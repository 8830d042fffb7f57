package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWithRunStampsRunIDAndSeq(t *testing.T) {
	var got []Event
	o := WithRun("run-000042", Func(func(e Event) { got = append(got, e) }))
	o.OnEvent(Event{Kind: NodeStart, Node: "a", Step: 0})
	o.OnEvent(Event{Kind: NodeDone, Node: "a", Step: 0})
	o.OnEvent(Event{Kind: Evicted, Node: "a", Step: 0})
	if len(got) != 3 {
		t.Fatalf("forwarded %d events, want 3", len(got))
	}
	for i, e := range got {
		if e.RunID != "run-000042" {
			t.Fatalf("event %d RunID = %q", i, e.RunID)
		}
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d Seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.At.IsZero() || time.Since(e.At) > time.Minute {
			t.Fatalf("event %d At = %v, want the present", i, e.At)
		}
	}
	// An emitter on its own clock (the simulator) keeps the time it set.
	virtual := time.Date(2026, 1, 1, 0, 0, 7, 0, time.UTC)
	o.OnEvent(Event{Kind: Materialized, Node: "a", At: virtual})
	if !got[3].At.Equal(virtual) {
		t.Fatalf("At = %v, want the emitter's %v", got[3].At, virtual)
	}
}

func TestWithRunNilObserver(t *testing.T) {
	if WithRun("r", nil) != nil {
		t.Fatal("WithRun over a nil observer must stay nil (disabled hot path)")
	}
}

func TestWithRunPreservesInnerScope(t *testing.T) {
	// An event already scoped by an inner WithRun (e.g. a Controller nested
	// under a gateway's own stamper) keeps its original correlation.
	var got Event
	outer := WithRun("outer", Func(func(e Event) { got = e }))
	inner := WithRun("inner", outer)
	inner.OnEvent(Event{Kind: NodeStart, Node: "a"})
	if got.RunID != "inner" || got.Seq != 1 {
		t.Fatalf("RunID/Seq = %q/%d, want inner/1", got.RunID, got.Seq)
	}
}

// TestWithRunConcurrentSeqUnique: concurrent emitters get dense Seq
// values, and the inner observer receives them in Seq order.
func TestWithRunConcurrentSeqUnique(t *testing.T) {
	var mu sync.Mutex
	var seen []int64
	o := WithRun("r", Func(func(e Event) {
		mu.Lock()
		seen = append(seen, e.Seq)
		mu.Unlock()
	}))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				o.OnEvent(Event{Kind: NodeStart})
			}
		}()
	}
	wg.Wait()
	if len(seen) != 800 {
		t.Fatalf("%d events delivered, want 800", len(seen))
	}
	for i, s := range seen {
		if s != int64(i+1) {
			t.Fatalf("delivery %d carries Seq %d: not dense or not in order", i, s)
		}
	}
}

func TestEventMarshalJSONRunIDAndSeq(t *testing.T) {
	e := Event{Kind: NodeStart, Node: "a", Step: 0, RunID: "run-000007", Seq: 12, At: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, `"run_id":"run-000007"`) || !strings.Contains(s, `"seq":12`) || !strings.Contains(s, `"at":"2026-01-02T03:04:05Z"`) {
		t.Fatalf("run correlation missing from wire shape: %s", s)
	}
	// Unscoped events stay compact.
	data, err = json.Marshal(Event{Kind: NodeStart, Node: "a", Step: 0})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "run_id") || strings.Contains(string(data), `"seq"`) || strings.Contains(string(data), `"at"`) {
		t.Fatalf("zero run fields serialized: %s", data)
	}
}
