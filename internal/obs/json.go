package obs

import (
	"encoding/json"
	"time"
)

// eventJSON is the wire shape of an Event: the kind as its canonical name,
// durations as seconds, the error as a string, and zero-valued fields
// omitted so an NDJSON/SSE progress stream stays compact.
type eventJSON struct {
	Kind           string  `json:"kind"`
	RunID          string  `json:"run_id,omitempty"`
	Seq            int64   `json:"seq,omitempty"`
	Node           string  `json:"node,omitempty"`
	Source         string  `json:"source,omitempty"`
	Step           *int    `json:"step,omitempty"`
	Bytes          int64   `json:"bytes,omitempty"`
	Encoded        int64   `json:"encoded,omitempty"`
	Ratio          float64 `json:"ratio,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	PlanSeconds    float64 `json:"plan_seconds,omitempty"`
	ReadSeconds    float64 `json:"read_seconds,omitempty"`
	WriteSeconds   float64 `json:"write_seconds,omitempty"`
	ComputeSeconds float64 `json:"compute_seconds,omitempty"`
	Flagged        bool    `json:"flagged,omitempty"`
	Form           string  `json:"form,omitempty"`
	Reason         string  `json:"reason,omitempty"`
	Iteration      int     `json:"iteration,omitempty"`
	Score          float64 `json:"score,omitempty"`
	Error          string  `json:"error,omitempty"`
	KernelStats

	At time.Time `json:"at,omitzero"`
}

// MarshalJSON renders the event for streaming consumers (the gateway's
// NDJSON/SSE run streams). Step -1 — "not applicable" by convention — is
// omitted rather than serialized as a real position; Err marshals as its
// message (the error type itself would serialize as "{}").
func (e Event) MarshalJSON() ([]byte, error) {
	j := eventJSON{
		Kind:           e.Kind.String(),
		RunID:          e.RunID,
		Seq:            e.Seq,
		Node:           e.Node,
		Source:         e.Source,
		Bytes:          e.Bytes,
		Encoded:        e.Encoded,
		Ratio:          e.Ratio,
		ElapsedSeconds: seconds(e.Elapsed),
		PlanSeconds:    seconds(e.Plan),
		ReadSeconds:    seconds(e.Read),
		WriteSeconds:   seconds(e.Write),
		ComputeSeconds: seconds(e.Compute),
		Flagged:        e.Flagged,
		Form:           e.Form,
		Reason:         e.Reason,
		Iteration:      e.Iteration,
		Score:          e.Score,
		KernelStats:    e.KernelStats,
		At:             e.At,
	}
	if e.Step >= 0 {
		step := e.Step
		j.Step = &step
	}
	if e.Err != nil {
		j.Error = e.Err.Error()
	}
	return json.Marshal(j)
}

func seconds(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return d.Seconds()
}
