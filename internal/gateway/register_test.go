package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
)

// fsStores roots each pipeline's store at root/<name>, as scserve -data
// does.
func fsStores(t *testing.T, root string) func(string) storage.Store {
	return func(name string) storage.Store {
		st, err := storage.NewFSStore(filepath.Join(root, name))
		if err != nil {
			t.Error(err)
			return storage.NewMemStore()
		}
		return st
	}
}

// otherSales is a base table of the same name as salesJSON's, with other
// rows: what a conflicting registration would seed.
func otherSales() tableJSON {
	tj := salesJSON()
	tj.Rows = [][]any{{json.Number("9"), "porter", json.Number("1")}}
	return tj
}

// TestRegisterDuplicateLeavesLivePipeline: a second registration under a
// live pipeline's name — other tables, chunked instead of v1 — answers 409
// and writes nothing: the base table's bytes and the next refresh's MVs
// are the first pipeline's.
func TestRegisterDuplicateLeavesLivePipeline(t *testing.T) {
	root := t.TempDir()
	s, ts := newTestGateway(t, Config{NewStore: fsStores(t, root)})
	resp := postJSON(t, ts.URL+"/v1/pipelines", pipelineRequest("p", "t"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	mvBytes := func() map[string][]byte {
		t.Helper()
		if st := refreshOK(t, s, "p"); st.Nodes != 3 {
			t.Fatalf("refresh ran %d nodes, want 3", st.Nodes)
		}
		out := make(map[string][]byte)
		for _, mv := range pipelineRequest("", "").MVs {
			b, err := os.ReadFile(filepath.Join(root, "p", mv.Name+".sct"))
			if err != nil {
				t.Fatal(err)
			}
			out[mv.Name] = b
		}
		return out
	}
	base := filepath.Join(root, "p", "sales.sct")
	wantBase, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	wantMVs := mvBytes()

	dup := pipelineRequest("p", "t")
	dup.Tables["sales"] = otherSales()
	dup.Encoding = true
	resp = postJSON(t, ts.URL+"/v1/pipelines", dup)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register over HTTP: %d, want 409", resp.StatusCode)
	}
	err = s.Register(PipelineSpec{
		Name: "p", MVs: dup.MVs, Encoding: true, SeedTPCDS: 0.01,
		Tables: map[string]*table.Table{"sales": mustTable(t, otherSales())},
	})
	if !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("duplicate Register: err = %v, want ErrAlreadyExists", err)
	}

	if got, err := os.ReadFile(base); err != nil || !bytes.Equal(got, wantBase) {
		t.Fatalf("the live pipeline's base table changed after a rejected registration (err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(root, "p", "store_sales.sct")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a rejected registration seeded TPC-DS tables (stat err %v)", err)
	}
	for name, got := range mvBytes() {
		if !bytes.Equal(got, wantMVs[name]) {
			t.Fatalf("MV %s changed after a rejected registration", name)
		}
	}
}

// TestRegisterClaimsNameBeforeSeeding: while one registration of a new
// name is still opening its store, a second one of that name is refused
// without opening the store at all.
func TestRegisterClaimsNameBeforeSeeding(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var opened atomic.Int32
	s, _ := newTestGateway(t, Config{NewStore: func(string) storage.Store {
		if opened.Add(1) == 1 {
			close(entered)
			<-release
		}
		return storage.NewMemStore()
	}})
	spec := PipelineSpec{
		Name: "p", MVs: pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}
	first := make(chan error, 1)
	go func() { first <- s.Register(spec) }()
	<-entered
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	defer open() // a failing assertion must not leave the first Register held
	if err := s.Register(spec); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("second Register while the first seeds: err = %v, want ErrAlreadyExists", err)
	}
	open()
	if err := <-first; err != nil {
		t.Fatalf("first Register: %v", err)
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("stores opened = %d, want 1", n)
	}
	// A failed registration gives the name back.
	if err := s.Register(PipelineSpec{Name: "q", MVs: []MVSpec{{Name: "bad", SQL: "SELEC"}}}); err == nil {
		t.Fatal("Register of unparsable SQL succeeded")
	}
	spec.Name = "q"
	if err := s.Register(spec); err != nil {
		t.Fatalf("Register after a failed registration of the name: %v", err)
	}
}

// TestRegisterRejectsEscapingNames: a pipeline name keys a directory under
// the data root, so a name that is not one path element is refused — 400
// over HTTP — and nothing is created outside the root or in it.
func TestRegisterRejectsEscapingNames(t *testing.T) {
	dir := t.TempDir()
	root := filepath.Join(dir, "root")
	s, ts := newTestGateway(t, Config{NewStore: fsStores(t, root)})
	for _, name := range []string{"", ".", "..", "../escaped", "a/b", `a\b`, `..\escaped`} {
		spec := PipelineSpec{
			Name: name, MVs: pipelineRequest("", "").MVs,
			Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
		}
		if err := s.Register(spec); err == nil {
			t.Fatalf("Register(%q) succeeded", name)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/pipelines", pipelineRequest("../escape", "t"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register ../escape over HTTP: %d, want 400", resp.StatusCode)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "root" {
			t.Fatalf("a rejected name created %s outside the data root", e.Name())
		}
	}
	if in, _ := os.ReadDir(root); len(in) != 0 {
		t.Fatalf("a rejected name created %s in the data root", in[0].Name())
	}
}

// TestGatewayExpireQueuedRun: a trigger queued behind its own pipeline's
// held run expires once the injected clock passes QueueTimeout. The expiry
// closes the run, lands an expired ledger row and counts in /metrics and
// Stats; the held run then succeeds and the pool ends with nothing
// reserved and no tokens committed.
func TestGatewayExpireQueuedRun(t *testing.T) {
	clock := newFakeClock()
	gs := &gateStore{Store: storage.NewMemStore()}
	s, ts := newTestGateway(t, Config{
		NewStore:     func(string) storage.Store { return gs },
		Clock:        clock.now,
		QueueTimeout: time.Minute,
	})
	if err := s.Register(PipelineSpec{
		Name: "p", Tenant: "t",
		MVs:    pipelineRequest("", "").MVs,
		Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
	}); err != nil {
		t.Fatal(err)
	}

	gs.block()
	defer gs.open() // a failing assertion must not leave Close waiting on the held run
	r1, err := s.Trigger("p")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Trigger("p")
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Status().State; st != StateQueued {
		t.Fatalf("second trigger state = %q while the first run is held", st)
	}
	<-gs.parked

	clock.advance(time.Minute + time.Second)
	s.adm.reap()
	<-r2.Done()
	if st := r2.Status().State; st != StateExpired {
		t.Fatalf("queued run state = %q after its deadline, want %q", st, StateExpired)
	}
	rows := s.RunHistory(ledger.Filter{Pipeline: "p", Outcome: StateExpired})
	if len(rows) != 1 || rows[0].RunID != r2.ID() {
		t.Fatalf("expired ledger rows = %+v, want one for %s", rows, r2.ID())
	}
	if got := scrapeGauge(t, ts.URL, `scserve_triggers_total{outcome="expired"}`); got != 1 {
		t.Fatalf(`scserve_triggers_total{outcome="expired"} = %v, want 1`, got)
	}
	if got := s.Stats().Expired; got != 1 {
		t.Fatalf("Stats().Expired = %d, want 1", got)
	}

	gs.open()
	<-r1.Done()
	if st := r1.Status(); st.State != StateSucceeded {
		t.Fatalf("held run: state %q (%s), want succeeded", st.State, st.Error)
	}
	if st := s.Stats(); st.ReservedBytes != 0 || st.SchedCommitted != 0 {
		t.Fatalf("%d B reserved, %d tokens committed after both runs ended", st.ReservedBytes, st.SchedCommitted)
	}
}

// TestRegisterRejectsDeepExpression: an MV whose expression nests past
// sql.MaxExprDepth answers 400 and registers nothing.
func TestRegisterRejectsDeepExpression(t *testing.T) {
	s, ts := newTestGateway(t, Config{})
	req := pipelineRequest("deep", "t")
	req.MVs[2].SQL = "SELECT COUNT(*) AS days FROM mv_daily WHERE " +
		strings.Repeat("(", 10000) + "revenue > 0" + strings.Repeat(")", 10000)
	resp := postJSON(t, ts.URL+"/v1/pipelines", req)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "nests more than") {
		t.Fatalf("register: %d %s, want 400 naming the depth bound", resp.StatusCode, body)
	}
	if _, err := s.Pipeline("deep"); err == nil {
		t.Fatal("a rejected pipeline was registered")
	}
}
