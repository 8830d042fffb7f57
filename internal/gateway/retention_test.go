package gateway

import (
	"net/http"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
)

// TestFinishedRunsAreRetainedUpToLedgerCapacity: a long-lived server must
// not keep every run it ever finished — each holds its trace, with the
// run's event log, and its pipeline. With LedgerCapacity 4, ten sequential refreshes
// leave the four newest readable and the older ones answer 404 like an
// unknown id, while a run that is still executing throughout is kept.
func TestFinishedRunsAreRetainedUpToLedgerCapacity(t *testing.T) {
	gs := &gateStore{Store: storage.NewMemStore()}
	s, ts := newTestGateway(t, Config{
		GlobalBudget:   64 << 20,
		LedgerCapacity: 4,
		NewStore: func(pipeline string) storage.Store {
			if pipeline == "held" {
				return gs
			}
			return storage.NewMemStore()
		},
	})
	for _, name := range []string{"held", "quick"} {
		if err := s.Register(PipelineSpec{
			Name: name, Tenant: name,
			MVs:    pipelineRequest("", "").MVs,
			Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
		}); err != nil {
			t.Fatal(err)
		}
	}

	gs.block()
	held, err := s.Trigger("held")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gs.parked: // a write of the held run sits at the gate: it is executing
	case <-time.After(5 * time.Second):
		t.Fatal("the held run never reached its first write")
	}

	var ids []string
	for i := 0; i < 10; i++ {
		ids = append(ids, refreshOK(t, s, "quick").ID)
	}

	s.mu.Lock()
	retained, finished := len(s.runs), len(s.terminal)
	s.mu.Unlock()
	if finished != 4 || retained != 5 {
		t.Fatalf("server retains %d runs, %d of them finished; want 5 and 4", retained, finished)
	}
	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, suffix := range []string{"", "/trace", "/events"} {
		if code := status("/v1/runs/" + ids[0] + suffix); code != http.StatusNotFound {
			t.Fatalf("GET /v1/runs/%s%s of a dropped run = %d, want 404", ids[0], suffix, code)
		}
		if code := status("/v1/runs/" + ids[9] + suffix); code != http.StatusOK {
			t.Fatalf("GET /v1/runs/%s%s of the newest run = %d, want 200", ids[9], suffix, code)
		}
	}
	if st, err := s.Run(held.ID()); err != nil || st.State != StateRunning {
		t.Fatalf("the executing run: %+v, %v; want it kept and running", st, err)
	}

	gs.open()
	<-held.Done()
	if st, err := s.Run(held.ID()); err != nil || st.State != StateSucceeded {
		t.Fatalf("the held run after the gate opened: %+v, %v", st, err)
	}
}
