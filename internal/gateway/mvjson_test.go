package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
)

// tableResponse is the JSON shape of an MV query result, as tests decode
// it.
type tableResponse struct {
	Pipeline string   `json:"pipeline"`
	MV       string   `json:"mv"`
	Columns  []string `json:"columns"`
	Types    []string `json:"types"`
	Rows     int      `json:"rows"`
	Data     [][]any  `json:"data"`
}

// toTableResponse is the boxed row-at-a-time response the MV route wrote
// through encoding/json before appendTableJSON: the reference the writer
// must match byte for byte.
func toTableResponse(pipeline, mv string, t *table.Table) tableResponse {
	resp := tableResponse{Pipeline: pipeline, MV: mv, Rows: t.NumRows()}
	for _, c := range t.Schema.Cols {
		resp.Columns = append(resp.Columns, c.Name)
		resp.Types = append(resp.Types, c.Type.String())
	}
	resp.Data = make([][]any, t.NumRows())
	for i := 0; i < t.NumRows(); i++ {
		row := make([]any, len(t.Schema.Cols))
		for j, v := range t.Row(i) {
			switch v.Type {
			case table.Int:
				row[j] = v.I
			case table.Float:
				row[j] = v.F
			default:
				row[j] = v.S
			}
		}
		resp.Data[i] = row
	}
	return resp
}

// referenceBody is what the MV route wrote before appendTableJSON.
func referenceBody(pipeline, mv string, t *table.Table) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(toTableResponse(pipeline, mv, t))
	return buf.Bytes(), err
}

// fuzzTable builds a table of ncols%9 columns (every type once from three
// columns on) and nrows%41 rows from seed. Row 0 holds s, x and n in every
// cell of their type; later rows mix those (and x's neighbours) with
// random values, strings drawn from bytes encoding/json escapes.
func fuzzTable(seed uint64, ncols, nrows uint8, s string, x float64, n int64) *table.Table {
	rng := rand.New(rand.NewPCG(seed, 0x5c))
	pieces := []string{"a", "Z9 ", `"`, `\`, "\x00", "\x1f", "\t", "\n", "<", ">", "&", "\u2028", "\u2029", "\xff", "\xe2\x80", "é", "\U0001F600", "\x7f", s}
	str := func() string {
		var b strings.Builder
		for range rng.IntN(6) {
			b.WriteString(pieces[rng.IntN(len(pieces))])
		}
		return b.String()
	}
	float := func() float64 {
		switch rng.IntN(5) {
		case 0:
			return x
		case 1:
			return math.Nextafter(x, math.Inf(rng.IntN(2)*2-1))
		case 2:
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
			return -x
		case 3:
			return rng.NormFloat64() * math.Pow(10, float64(rng.IntN(61)-30))
		}
		return float64(rng.IntN(20000)+100) / 100
	}
	integer := func() int64 {
		switch rng.IntN(4) {
		case 0:
			return n
		case 1:
			return int64(rng.Uint64())
		case 2:
			return []int64{math.MinInt64, math.MaxInt64, 0, -1}[rng.IntN(4)]
		}
		return int64(rng.IntN(2000) - 1000)
	}
	offset := rng.IntN(3)
	cols := make([]table.Column, ncols%9)
	for j := range cols {
		cols[j] = table.Column{Name: fmt.Sprintf("c%d", j), Type: table.Type((j + offset) % 3)}
		if rng.IntN(4) == 0 {
			cols[j].Name = str()
		}
	}
	t := table.New(table.NewSchema(cols...))
	for i := range int(nrows % 41) {
		for j, c := range cols {
			switch c.Type {
			case table.Int:
				v := n
				if i > 0 {
					v = integer()
				}
				t.Cols[j].Ints = append(t.Cols[j].Ints, v)
			case table.Float:
				v := x
				if i > 0 {
					v = float()
				}
				t.Cols[j].Floats = append(t.Cols[j].Floats, v)
			default:
				v := s
				if i > 0 {
					v = str()
				}
				t.Cols[j].Strs = append(t.Cols[j].Strs, v)
			}
		}
	}
	return t
}

// FuzzMVResponse: the MV route's body is byte for byte what encoding/json
// wrote for the boxed response, and a table encoding/json refuses (a NaN
// or infinite float) is refused by the writer too.
func FuzzMVResponse(f *testing.F) {
	for _, c := range []struct {
		seed         uint64
		ncols, nrows uint8
		s            string
		x            float64
		n            int64
	}{
		{0, 0, 0, "", 0, 0},
		{1, 0, 7, "p", 1, 1},
		{2, 3, 0, "no rows", 1, 1},
		{3, 3, 5, `quote " and backslash \`, 0.1, 0},
		{4, 8, 40, "\x00\x01\x1f\x7f ctl", 1e-6, math.MinInt64},
		{5, 4, 12, "<b>&amp;</b>", math.Nextafter(1e-6, 0), math.MaxInt64},
		{6, 5, 9, "line\u2028para\u2029", 1e21, -1 << 62},
		{7, 6, 3, "bad \xff\xfe utf-8 \xe2\x82", math.Nextafter(1e21, 0), 1 << 53},
		{8, 3, 4, "é ünïcødé \U0001F600", math.Copysign(0, -1), -1},
		{9, 3, 4, "denormal", 5e-324, 0},
		{10, 3, 4, "largest", math.MaxFloat64, 0},
		{11, 3, 4, "e-07", 1e-7, 0},
		{12, 3, 4, "-e-07", -2.5e-7, 0},
		{13, 3, 4, "e+21", -1e21, 0},
		{14, 3, 2, "nan", math.NaN(), 0},
		{15, 3, 2, "inf", math.Inf(-1), 0},
	} {
		f.Add(c.seed, c.ncols, c.nrows, c.s, c.x, c.n)
	}
	f.Fuzz(func(t *testing.T, seed uint64, ncols, nrows uint8, s string, x float64, n int64) {
		tb := fuzzTable(seed, ncols, nrows, s, x, n)
		want, wantErr := referenceBody("pipe"+s, s, tb)
		got, err := appendTableJSON([]byte("stale"), "pipe"+s, s, tb)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("writer error %v, encoding/json error %v", err, wantErr)
		}
		if got = got[len("stale"):]; err == nil && !bytes.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			lo := max(i-40, 0)
			t.Fatalf("body differs from encoding/json's at byte %d:\n got …%s\nwant …%s", i, got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
		}
	})
}

// ss1999Table is shaped like the benchmark's MV read: 1,000 rows of
// ss_1999's five INT and two FLOAT columns, TPC-DS-like values.
func ss1999Table() *table.Table {
	t := table.New(table.NewSchema(
		table.Column{Name: "item_sk", Type: table.Int},
		table.Column{Name: "customer_sk", Type: table.Int},
		table.Column{Name: "store_sk", Type: table.Int},
		table.Column{Name: "moy", Type: table.Int},
		table.Column{Name: "quantity", Type: table.Int},
		table.Column{Name: "sales_price", Type: table.Float},
		table.Column{Name: "net_profit", Type: table.Float},
	))
	rng := rand.New(rand.NewPCG(1999, 1))
	for range 1000 {
		price := float64(rng.IntN(20000)+100) / 100
		qty := int64(rng.IntN(10) + 1)
		profit := price*float64(qty)*0.3 - float64(rng.IntN(500))/100
		if err := t.AppendRow(
			table.IntValue(int64(rng.IntN(18000)+1)),
			table.IntValue(int64(rng.IntN(100000)+1)),
			table.IntValue(int64(rng.IntN(12)+1)),
			table.IntValue(int64(rng.IntN(12)+1)),
			table.IntValue(qty),
			table.FloatValue(price),
			table.FloatValue(profit),
		); err != nil {
			panic(err)
		}
	}
	return t
}

// discardWriter is a ResponseWriter that keeps only its header.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// BenchmarkMVResponse times building and writing one MV query body the way
// handleQueryMV does, pooled buffer included.
func BenchmarkMVResponse(b *testing.B) {
	t := ss1999Table()
	w := &discardWriter{h: http.Header{}}
	respond := func() {
		buf := mvBodies.Get().(*[]byte)
		body, err := appendTableJSON((*buf)[:0], "tenant0", "ss_1999", t)
		if err != nil {
			b.Fatal(err)
		}
		writeBody(w, http.StatusOK, body)
		*buf = body
		mvBodies.Put(buf)
	}
	respond() // a server under load reads from a warm pool
	b.ReportAllocs()
	for b.Loop() {
		respond()
	}
}

// TestQueryMVBodyMatchesEncodingJSON: over HTTP, every MV's body is the
// bytes encoding/json wrote for the same table, with its Content-Length.
// scserve_mv_read_seconds counts each answered GET once and no library
// QueryMV call.
func TestQueryMVBodyMatchesEncodingJSON(t *testing.T) {
	s, ts := newTestGateway(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/pipelines", pipelineRequest("beer", "brewer"))
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/pipelines/beer/refresh?wait=1", nil)
	if st := decodeBody[RunStatus](t, resp); st.State != StateSucceeded {
		t.Fatalf("refresh: %+v", st)
	}
	for _, mv := range []string{"mv_daily", "mv_top", "mv_count"} {
		for _, limit := range []int{0, 1} {
			resp, err := http.Get(ts.URL + "/v1/pipelines/beer/mvs/" + mv + "?limit=" + strconv.Itoa(limit))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			tb, err := s.QueryMV("beer", mv, limit)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceBody("beer", mv, tb)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("%s limit %d: %d %s, want %s", mv, limit, resp.StatusCode, got, want)
			}
			if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(want)) {
				t.Fatalf("%s: Content-Length %q, want %d", mv, cl, len(want))
			}
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "\nscserve_mv_read_seconds_count 6\n"; !strings.Contains(string(metrics), want) {
		t.Fatalf("/metrics lacks %q:\n%s", strings.TrimSpace(want), metrics)
	}
}

// TestQueryMVNonFiniteFloat: an MV holding an infinite FLOAT refreshes, but
// has no JSON form, so reading it answers 500 naming the MV, row and
// column instead of 200 with an empty body.
func TestQueryMVNonFiniteFloat(t *testing.T) {
	_, ts := newTestGateway(t, Config{})
	huge := "1" + strings.Repeat("0", 300) + ".0"
	req := registerRequest{
		Name:   "inf",
		MVs:    []MVSpec{{Name: "overflow", SQL: "SELECT day, amount * " + huge + " * " + huge + " AS x FROM sales"}},
		Tables: map[string]tableJSON{"sales": salesJSON()},
	}
	resp := postJSON(t, ts.URL+"/v1/pipelines", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/pipelines/inf/refresh?wait=1", nil)
	if st := decodeBody[RunStatus](t, resp); st.State != StateSucceeded {
		t.Fatalf("refresh: %+v", st)
	}
	resp, err := http.Get(ts.URL + "/v1/pipelines/inf/mvs/overflow")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status %d (%d bytes: %q), want 500", resp.StatusCode, len(b), b)
	}
	msg := decodeBody[errorResponse](t, resp).Error
	for _, part := range []string{`mv "overflow"`, "row 0", `column "x"`, "+Inf"} {
		if !strings.Contains(msg, part) {
			t.Fatalf("error %q does not name %s", msg, part)
		}
	}
}

// TestWriteJSONMarshalFailure: a value encoding/json refuses answers 500
// with the error, not the intended status with an empty body.
func TestWriteJSONMarshalFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "NaN") {
		t.Fatalf("body %q (%v), want an error naming NaN", rec.Body.Bytes(), err)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for %d bytes", cl, rec.Body.Len())
	}
}
