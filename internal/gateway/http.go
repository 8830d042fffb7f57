package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/telemetry"
)

// registerRequest is the JSON body of POST /v1/pipelines.
type registerRequest struct {
	Name        string `json:"name"`
	Tenant      string `json:"tenant,omitempty"`
	TenantSlice int64  `json:"tenant_slice_bytes,omitempty"`
	// Workload names a built-in MV DAG instead of spelling out mvs:
	// "tpcds-real" is the repo's 12-node TPC-DS store_sales pipeline
	// (pair it with seed_tpcds_sf).
	Workload  string               `json:"workload,omitempty"`
	MVs       []MVSpec             `json:"mvs"`
	Every     string               `json:"every,omitempty"` // Go duration, e.g. "30s"
	Encoding  bool                 `json:"encoding,omitempty"`
	SeedTPCDS float64              `json:"seed_tpcds_sf,omitempty"`
	Tables    map[string]tableJSON `json:"tables,omitempty"`
}

// tableJSON is an inline base table: a schema plus row-major values, numbers
// as their JSON literals (json.Number), so an int column reads them exactly.
type tableJSON struct {
	Schema []columnJSON `json:"schema"`
	Rows   [][]any      `json:"rows"`
}

type columnJSON struct {
	Name string `json:"name"`
	Type string `json:"type"` // int | float | str
}

// toTable materializes an inline table.
func (tj tableJSON) toTable() (*table.Table, error) {
	cols := make([]table.Column, len(tj.Schema))
	for i, c := range tj.Schema {
		col := table.Column{Name: c.Name}
		switch c.Type {
		case "int":
			col.Type = table.Int
		case "float":
			col.Type = table.Float
		case "str", "string":
			col.Type = table.Str
		default:
			return nil, fmt.Errorf("column %q: unknown type %q", c.Name, c.Type)
		}
		cols[i] = col
	}
	t := table.New(table.NewSchema(cols...))
	for ri, row := range tj.Rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("row %d: %d values for %d columns", ri, len(row), len(cols))
		}
		vals := make([]table.Value, len(row))
		for ci, v := range row {
			n, _ := v.(json.Number)
			switch cols[ci].Type {
			case table.Int:
				i, ok := jsonInt(n)
				if !ok {
					return nil, fmt.Errorf("row %d col %q: want an integer of magnitude at most 2^53, got %v", ri, cols[ci].Name, v)
				}
				vals[ci] = table.IntValue(i)
			case table.Float:
				f, err := n.Float64()
				if err != nil {
					return nil, fmt.Errorf("row %d col %q: want float, got %v", ri, cols[ci].Name, v)
				}
				vals[ci] = table.FloatValue(f)
			case table.Str:
				s, ok := v.(string)
				if !ok {
					return nil, fmt.Errorf("row %d col %q: want string", ri, cols[ci].Name)
				}
				vals[ci] = table.StrValue(s)
			}
		}
		if err := t.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// jsonInt reads an int cell: an integral number no larger in magnitude than
// 2^53, beyond which a JSON number read as a double no longer holds every
// integer.
func jsonInt(n json.Number) (int64, bool) {
	if i, err := n.Int64(); err == nil {
		return i, -1<<53 <= i && i <= 1<<53
	}
	f, err := n.Float64()
	return int64(f), err == nil && f == math.Trunc(f) && math.Abs(f) <= 1<<53
}

// writeJSON answers code with v as JSON. v is marshalled before the header
// goes out, so a value that cannot be marshalled answers 500 with the
// error rather than code with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(errorResponse{Error: err.Error()})
	}
	writeBody(w, code, append(body, '\n'))
}

// writeBody answers code with a complete JSON body.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeError maps gateway errors to HTTP status codes. ErrQueueFull is 429
// (back off and retry); unknown names are 404; a stored object that cannot
// be decoded is 500; bad input is 400. Handler bugs and broken stores
// aside, the gateway never answers 5xx for admission pressure — that is the
// acceptance bar the bench asserts.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrUnreadable):
		code = http.StatusInternalServerError
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrAlreadyExists):
		code = http.StatusConflict
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// byPath serves a call keyed by one path value: 200 with the result as
// JSON, or the error's mapped status.
func byPath[T any](key string, call func(string) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, err := call(r.PathValue(key))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	}
}

// Handler returns the gateway's HTTP API:
//
//	POST   /v1/pipelines                      register a pipeline
//	GET    /v1/pipelines                      list pipelines
//	GET    /v1/pipelines/{name}               pipeline info
//	DELETE /v1/pipelines/{name}               unregister
//	POST   /v1/pipelines/{name}/refresh       trigger a refresh (?wait=1 blocks)
//	GET    /v1/pipelines/{name}/mvs/{mv}      query a materialized view (?limit=N): {pipeline, mv,
//	                                          columns, types, rows, data: [[row]…]}; 500 when a
//	                                          FLOAT cell is NaN or infinite (no JSON form)
//	GET    /v1/pipelines/{name}/health        SLO attainment, baselines, regressions
//	GET    /v1/pipelines/{name}/explain       per-MV flag decisions: scores, byte costs, flip conditions
//	GET    /v1/state/catalog                  Memory Catalog residents, codec mix, eviction ranks and timeline
//	GET    /v1/state/sched                    scheduler tokens, catalog reservations, admission queue with blockers
//	GET    /v1/runs                           ledger history (?pipeline=&tenant=&outcome=&anomalous=1&limit=N)
//	GET    /v1/runs/{id}                      run status
//	POST   /v1/runs/{id}/cancel               cancel a queued or running refresh
//	GET    /v1/runs/{id}/events               NDJSON progress stream (SSE with Accept: text/event-stream)
//	GET    /v1/runs/{id}/trace                run trace: spans + critical-path analysis
//	GET    /metrics                           Prometheus exposition (OpenMetrics with exemplars when negotiated)
//	GET    /healthz                           server stats
//
// Refresh triggers accept a W3C traceparent header; the run's root span
// joins the caller's trace and the response echoes the run's own
// traceparent so clients can link further work under it.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/pipelines", s.handleRegister)
	mux.HandleFunc("GET /v1/pipelines", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Pipelines())
	})
	mux.HandleFunc("GET /v1/pipelines/{name}", byPath("name", s.Pipeline))
	mux.HandleFunc("DELETE /v1/pipelines/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Unregister(r.PathValue("name")); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/pipelines/{name}/refresh", s.handleTrigger)
	mux.HandleFunc("GET /v1/pipelines/{name}/mvs/{mv}", s.handleQueryMV)
	mux.HandleFunc("GET /v1/pipelines/{name}/health", byPath("name", s.PipelineHealth))
	mux.HandleFunc("GET /v1/pipelines/{name}/explain", byPath("name", s.ExplainPipeline))
	mux.HandleFunc("GET /v1/state/catalog", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.CatalogState())
	})
	mux.HandleFunc("GET /v1/state/sched", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.SchedState())
	})
	mux.HandleFunc("GET /v1/runs", s.handleRunHistory)
	mux.HandleFunc("GET /v1/runs/{id}", byPath("id", s.Run))
	mux.HandleFunc("POST /v1/runs/{id}/cancel", byPath("id", s.CancelRun))
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/runs/{id}/trace", byPath("id", s.RunTrace))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Content negotiation: an Accept naming OpenMetrics gets the 1.0
		// exposition (with exemplars); everything else the classic format.
		om := accepts(r, "application/openmetrics-text")
		if om {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		} else {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		}
		s.prom.write(w, om, s.snapshot(true))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

// accepts reports whether one of the comma-separated media types of the
// request's Accept headers is mediaType, ignoring parameters such as q.
func accepts(r *http.Request, mediaType string) bool {
	for _, v := range r.Header.Values("Accept") {
		for part := range strings.SplitSeq(v, ",") {
			mt, _, _ := strings.Cut(part, ";")
			if strings.EqualFold(strings.TrimSpace(mt), mediaType) {
				return true
			}
		}
	}
	return false
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	spec := PipelineSpec{
		Name:        req.Name,
		Tenant:      req.Tenant,
		TenantSlice: req.TenantSlice,
		MVs:         req.MVs,
		Encoding:    req.Encoding,
		SeedTPCDS:   req.SeedTPCDS,
	}
	if len(spec.MVs) == 0 && req.Workload != "" {
		switch req.Workload {
		case "tpcds-real":
			spec.MVs = TPCDSSpec("", "", 0).MVs
		default:
			writeError(w, fmt.Errorf("unknown workload %q", req.Workload))
			return
		}
	}
	if req.Every != "" {
		d, err := time.ParseDuration(req.Every)
		if err != nil {
			writeError(w, fmt.Errorf("bad every: %w", err))
			return
		}
		spec.Every = d
	}
	if len(req.Tables) > 0 {
		spec.Tables = make(map[string]*table.Table, len(req.Tables))
		for name, tj := range req.Tables {
			t, err := tj.toTable()
			if err != nil {
				writeError(w, fmt.Errorf("table %q: %w", name, err))
				return
			}
			spec.Tables[name] = t
		}
	}
	if err := s.Register(spec); err != nil {
		writeError(w, err)
		return
	}
	info, err := s.Pipeline(spec.Name)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleTrigger(w http.ResponseWriter, r *http.Request) {
	// A valid W3C traceparent joins the run's trace to the caller's; a
	// malformed one is ignored rather than rejected, per the spec.
	parent, _ := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
	run, err := s.TriggerTrace(r.PathValue("name"), parent)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("traceparent", run.Traceparent())
	if r.URL.Query().Get("wait") == "" {
		writeJSON(w, http.StatusAccepted, run.status())
		return
	}
	// wait mode: block until the run reaches a terminal state; a client
	// disconnect cancels the refresh and releases its reservation.
	select {
	case <-run.done:
		writeJSON(w, http.StatusOK, run.status())
	case <-r.Context().Done():
		_, _ = s.CancelRun(run.id)
	}
}

// runHistoryResponse is the JSON shape of GET /v1/runs.
type runHistoryResponse struct {
	Runs  []ledger.RunSummary `json:"runs"`
	Count int                 `json:"count"`
}

// handleRunHistory serves the ledger's run history, newest first.
// Query params: pipeline, tenant, outcome filter exact values;
// anomalous=1 keeps only flagged runs; limit caps results (default 50).
func (s *Server) handleRunHistory(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := ledger.Filter{
		Pipeline: q.Get("pipeline"),
		Tenant:   q.Get("tenant"),
		Outcome:  q.Get("outcome"),
		Limit:    50,
	}
	if v := q.Get("anomalous"); v == "1" || v == "true" {
		f.Anomalous = true
	}
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			writeError(w, fmt.Errorf("bad limit %q", ls))
			return
		}
		f.Limit = n
	}
	runs := s.RunHistory(f)
	if runs == nil {
		runs = []ledger.RunSummary{}
	}
	writeJSON(w, http.StatusOK, runHistoryResponse{Runs: runs, Count: len(runs)})
}

func (s *Server) handleQueryMV(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			writeError(w, fmt.Errorf("bad limit %q", ls))
			return
		}
		limit = n
	}
	name, mv := r.PathValue("name"), r.PathValue("mv")
	start := time.Now()
	t, err := s.QueryMV(name, mv, limit)
	if err != nil {
		writeError(w, err)
		return
	}
	buf := mvBodies.Get().(*[]byte)
	body, err := appendTableJSON((*buf)[:0], name, mv, t)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	} else {
		s.prom.mvReadSeconds.observe(time.Since(start).Seconds())
		writeBody(w, http.StatusOK, body)
	}
	if cap(body) <= maxPooledBody {
		*buf = body
		mvBodies.Put(buf)
	}
}

// handleEvents streams a run's obs events from its trace's log as NDJSON
// (or SSE when the client asks for text/event-stream): logged events replay
// first, then the stream follows live until the run finishes or the client
// leaves.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	run, err := s.runHandle(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	sse := accepts(r, "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	from := 0
	for {
		events, done, wake := run.trace.Events(from)
		for _, e := range events {
			if sse {
				fmt.Fprint(w, "data: ")
			}
			if err := enc.Encode(e); err != nil {
				return
			}
			if sse {
				fmt.Fprint(w, "\n")
			}
		}
		from += len(events)
		if len(events) > 0 && flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}
