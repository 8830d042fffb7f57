package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestEventMarshalJSON(t *testing.T) {
	e := Event{
		Kind: NodeDone, Node: "mv_a", Step: 3,
		Bytes: 1024, Encoded: 256, Elapsed: 1500 * time.Millisecond,
		Read: 250 * time.Millisecond, Flagged: true, Form: "serialized",
	}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got["kind"] != "NodeDone" || got["node"] != "mv_a" {
		t.Fatalf("kind/node = %v/%v", got["kind"], got["node"])
	}
	if got["step"].(float64) != 3 || got["bytes"].(float64) != 1024 {
		t.Fatalf("step/bytes = %v/%v", got["step"], got["bytes"])
	}
	if got["elapsed_seconds"].(float64) != 1.5 {
		t.Fatalf("elapsed_seconds = %v", got["elapsed_seconds"])
	}
	if got["flagged"] != true || got["form"] != "serialized" {
		t.Fatalf("flagged = %v as %v", got["flagged"], got["form"])
	}
	// Zero-valued fields are omitted; kernel counters never appear here.
	for _, absent := range []string{"error", "lowered", "write_seconds", "score"} {
		if _, ok := got[absent]; ok {
			t.Fatalf("zero field %q serialized: %s", absent, data)
		}
	}
}

func TestEventMarshalJSONErrorAndStep(t *testing.T) {
	e := Event{Kind: NodeDone, Node: "mv_b", Step: -1, Err: errors.New("boom")}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, `"error":"boom"`) {
		t.Fatalf("error not serialized as string: %s", s)
	}
	if strings.Contains(s, `"step"`) || strings.Contains(s, `"form"`) {
		t.Fatalf("step -1 (not applicable) or the form of an unflagged node serialized: %s", s)
	}
}

func TestEventMarshalJSONKernelCounters(t *testing.T) {
	e := Event{Kind: KernelDone, Node: "mv_c", Step: 0, Bytes: 512,
		KernelStats: KernelStats{Lowered: 4, DictReused: 2, DecodedBytes: 512}}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, `"kind":"KernelDone"`) || !strings.Contains(s, `"lowered":4`) ||
		!strings.Contains(s, `"dict_reused":2`) {
		t.Fatalf("kernel counters missing: %s", s)
	}
	if !strings.Contains(s, `"step":0`) {
		t.Fatalf("step 0 must serialize (it is a real plan position): %s", s)
	}
	// The decoded bytes travel once, as the event's bytes.
	if !strings.Contains(s, `"bytes":512`) || strings.Contains(s, "decoded") {
		t.Fatalf("decoded bytes not reported once as bytes: %s", s)
	}
}

func TestEventMarshalJSONEvictionReason(t *testing.T) {
	data, err := json.Marshal(Event{Kind: Evicted, Node: "mv_d", Step: 1, Bytes: 64, Reason: EvictSweep})
	if err != nil {
		t.Fatal(err)
	}
	if s := string(data); !strings.Contains(s, `"reason":"sweep"`) {
		t.Fatalf("eviction reason missing: %s", s)
	}
}
