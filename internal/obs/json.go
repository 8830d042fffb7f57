package obs

import (
	"encoding/json"
	"time"
)

// eventJSON is the wire shape of an Event: the kind as its canonical name,
// durations as seconds, the error as a string, and zero-valued fields
// omitted so an NDJSON/SSE progress stream stays compact.
type eventJSON struct {
	Kind             string  `json:"kind"`
	RunID            string  `json:"run_id,omitempty"`
	Seq              int64   `json:"seq,omitempty"`
	Node             string  `json:"node,omitempty"`
	Source           string  `json:"source,omitempty"`
	Step             *int    `json:"step,omitempty"`
	Bytes            int64   `json:"bytes,omitempty"`
	Encoded          int64   `json:"encoded,omitempty"`
	Ratio            float64 `json:"ratio,omitempty"`
	ElapsedSeconds   float64 `json:"elapsed_seconds,omitempty"`
	PlanSeconds      float64 `json:"plan_seconds,omitempty"`
	ReadSeconds      float64 `json:"read_seconds,omitempty"`
	WriteSeconds     float64 `json:"write_seconds,omitempty"`
	ComputeSeconds   float64 `json:"compute_seconds,omitempty"`
	Flagged          bool    `json:"flagged,omitempty"`
	Form             string  `json:"form,omitempty"`
	Iteration        int     `json:"iteration,omitempty"`
	Score            float64 `json:"score,omitempty"`
	Error            string  `json:"error,omitempty"`
	Lowered          int64   `json:"lowered,omitempty"`
	Fallbacks        int64   `json:"fallbacks,omitempty"`
	ChunksSkipped    int64   `json:"chunks_skipped,omitempty"`
	CodeFilteredRows int64   `json:"code_filtered_rows,omitempty"`
	DecodesAvoided   int64   `json:"decodes_avoided,omitempty"`
	JoinBuildRows    int64   `json:"join_build_rows,omitempty"`
	JoinProbeRows    int64   `json:"join_probe_rows,omitempty"`
	ChunksPassed     int64   `json:"chunks_passed,omitempty"`
	ReencodedChunks  int64   `json:"reencoded_chunks,omitempty"`
	DictReused       int64   `json:"dict_reused,omitempty"`

	At time.Time `json:"at,omitzero"`
}

// MarshalJSON renders the event for streaming consumers (the gateway's
// NDJSON/SSE run streams). Step -1 — "not applicable" by convention — is
// omitted rather than serialized as a real position; Err marshals as its
// message (the error type itself would serialize as "{}").
func (e Event) MarshalJSON() ([]byte, error) {
	j := eventJSON{
		Kind:             e.Kind.String(),
		RunID:            e.RunID,
		Seq:              e.Seq,
		Node:             e.Node,
		Source:           e.Source,
		Bytes:            e.Bytes,
		Encoded:          e.Encoded,
		Ratio:            e.Ratio,
		ElapsedSeconds:   seconds(e.Elapsed),
		PlanSeconds:      seconds(e.Plan),
		ReadSeconds:      seconds(e.Read),
		WriteSeconds:     seconds(e.Write),
		ComputeSeconds:   seconds(e.Compute),
		Flagged:          e.Flagged,
		Form:             e.Form,
		Iteration:        e.Iteration,
		Score:            e.Score,
		Lowered:          e.Lowered,
		Fallbacks:        e.Fallbacks,
		ChunksSkipped:    e.ChunksSkipped,
		CodeFilteredRows: e.CodeFilteredRows,
		DecodesAvoided:   e.DecodesAvoided,
		JoinBuildRows:    e.JoinBuildRows,
		JoinProbeRows:    e.JoinProbeRows,
		ChunksPassed:     e.ChunksPassed,
		ReencodedChunks:  e.ReencodedChunks,
		DictReused:       e.DictReused,
		At:               e.At,
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
