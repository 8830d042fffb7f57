package sc_test

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sc "github.com/shortcircuit-db/sc"
)

// slowReadStore injects a settable latency into reads of one object — the
// library-facade twin of the gateway's synthetic node slowdown.
type slowReadStore struct {
	sc.Store
	target  string
	delayNs atomic.Int64
}

func (s *slowReadStore) Read(name string) ([]byte, error) {
	if ns := s.delayNs.Load(); ns > 0 && strings.Contains(name, s.target) {
		time.Sleep(time.Duration(ns))
	}
	return s.Store.Read(name)
}

// TestRefresherExplainAndAlerts pins the facade half of the introspection
// layer: Explain reports a decision with a flip condition for every MV
// before any refresh has run, and WithAlerts pushes an induced wall
// regression to the webhook exactly once inside the dedup cooldown.
func TestRefresherExplainAndAlerts(t *testing.T) {
	var (
		hookMu sync.Mutex
		bodies []string
	)
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		hookMu.Lock()
		bodies = append(bodies, string(b))
		hookMu.Unlock()
	}))
	defer hook.Close()

	store := sc.NewMemStore()
	baseTables(t, store)
	ds := &slowReadStore{Store: store, target: "events"}
	ref, err := sc.New(chainMVs(), ds,
		sc.WithMemory(1<<20),
		sc.WithAlerts(hook.URL, time.Minute),
	)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := ref.Explain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 4 || len(rep.Decisions) != 4 {
		t.Fatalf("explain covers %d/%d nodes, want 4", len(rep.Decisions), rep.Nodes)
	}
	var flagged int
	for _, d := range rep.Decisions {
		if d.Class == "" || d.Flip == "" {
			t.Fatalf("decision %s missing class or flip: %+v", d.Node, d)
		}
		if d.Flagged {
			flagged++
		}
	}
	if flagged != rep.FlaggedCount {
		t.Fatalf("flagged count %d != %d flagged decisions", rep.FlaggedCount, flagged)
	}

	// Three healthy refreshes learn per-node wall baselines; two slowed
	// ones regress. Only the first may alert — the second lands inside the
	// cooldown window.
	for i := 0; i < 3; i++ {
		if _, err := ref.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ds.delayNs.Store(int64(150 * time.Millisecond))
	for i := 0; i < 2; i++ {
		if _, err := ref.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ds.delayNs.Store(0)
	if err := ref.Close(); err != nil { // drains the alert queue
		t.Fatal(err)
	}

	hookMu.Lock()
	got := append([]string(nil), bodies...)
	hookMu.Unlock()
	var wall int
	for _, b := range got {
		if strings.Contains(b, `"kind":"wall_regression"`) {
			wall++
			if !strings.Contains(b, `"node":"m1"`) {
				t.Fatalf("regression alert names wrong node: %s", b)
			}
			// One wording for library sessions and gateway pipelines.
			if !strings.Contains(b, `"summary":"pipeline session: wall_regression at node m1: `) {
				t.Fatalf("regression alert summary: %s", b)
			}
		}
	}
	if wall != 1 {
		t.Fatalf("wall_regression deliveries = %d, want exactly 1 (bodies: %q)", wall, got)
	}
	st := ref.AlertStats()
	if st.Delivered != int64(len(got)) || st.Delivered == 0 {
		t.Fatalf("stats %+v disagree with %d webhook bodies", st, len(got))
	}
}

// TestRefresherExplainsTheNextRun: Explain reports the plan the next Run
// executes. Before the first Optimize that is the unoptimized baseline, so
// nothing is flagged even under a budget the optimizer would use; after
// Optimize every decision carries the session plan's flag.
func TestRefresherExplainsTheNextRun(t *testing.T) {
	ctx := context.Background()
	store := sc.NewMemStore()
	baseTables(t, store)
	ref, err := sc.New(chainMVs(), store, sc.WithMemory(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ref.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var ran int
	for _, n := range res.Nodes {
		if n.Flagged {
			ran++
		}
	}
	if rep.FlaggedCount != ran || ran != 0 {
		t.Fatalf("explain flags %d nodes, the next run flagged %d; want 0 and 0", rep.FlaggedCount, ran)
	}

	plan, _, err := ref.Optimize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.FlaggedIDs()) == 0 {
		t.Fatal("optimizer flagged nothing; the test compares no flags")
	}
	if rep, err = ref.Explain(ctx); err != nil {
		t.Fatal(err)
	}
	g := ref.Graph()
	for _, d := range rep.Decisions {
		if want := ref.Plan().Flagged[g.Lookup(d.Node)]; d.Flagged != want {
			t.Errorf("%s: explain flagged=%v, plan flagged=%v", d.Node, d.Flagged, want)
		}
	}
	if rep.FlaggedCount != len(plan.FlaggedIDs()) {
		t.Errorf("explain flags %d nodes, plan %d", rep.FlaggedCount, len(plan.FlaggedIDs()))
	}
}

// TestRefresherExplainPartsSumToScore: the read and write savings Explain
// reports are the ones the score was built from — also once the score holds
// an observed blocking write in place of the device model's. The first run
// is the unflagged baseline, so every node's write is observed; the second
// runs the plan optimised from it, whose budget holds some of the observed
// outputs (0.1–1 KB each) and not others.
func TestRefresherExplainPartsSumToScore(t *testing.T) {
	ctx := context.Background()
	mvs, tables := tpcdsPipeline(t, 0.01)
	store := sc.NewMemStore()
	for name, tb := range tables {
		if err := sc.SaveTable(store, name, tb); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := sc.New(mvs, store, sc.WithMemory(1500))
	if err != nil {
		t.Fatal(err)
	}
	for run, wantFlagged := range []bool{false, true} {
		res, err := ref.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var flagged, observed int
		for _, n := range res.Nodes {
			if n.Flagged {
				flagged++
			}
		}
		if (flagged > 0) != wantFlagged {
			t.Fatalf("run %d flagged %d nodes, want any: %v", run, flagged, wantFlagged)
		}
		rep, err := ref.Explain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range rep.Decisions {
			want := math.Max(0, d.ReadSaveSeconds+d.WriteSaveSeconds)
			if math.Abs(want-d.ScoreSeconds) > 1e-9 {
				t.Errorf("after run %d, %s: read %v + write %v s, but the knapsack maximised %v s",
					run, d.Node, d.ReadSaveSeconds, d.WriteSaveSeconds, d.ScoreSeconds)
			}
			if o, _ := ref.Metrics().Latest(d.Node); o.WriteTime > 0 {
				observed++
				if d.WriteSaveSeconds != o.WriteTime.Seconds() {
					t.Errorf("after run %d, %s: write saving %v s, observed blocking write %v", run, d.Node, d.WriteSaveSeconds, o.WriteTime)
				}
			}
		}
		if observed == 0 {
			t.Fatalf("after run %d no node has an observed blocking write", run)
		}
	}
}

// TestRunAfterCloseDropsItsAlerts: Close drains the webhook queue for good;
// a refresh that regresses afterwards still runs and lands its ledger row,
// and its alert is a counted drop (it used to be a send on a closed channel).
func TestRunAfterCloseDropsItsAlerts(t *testing.T) {
	var posts atomic.Int64
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { posts.Add(1) }))
	defer hook.Close()

	store := sc.NewMemStore()
	baseTables(t, store)
	ds := &slowReadStore{Store: store, target: "events"}
	ref, err := sc.New(chainMVs(), ds, sc.WithMemory(1<<20), sc.WithAlerts(hook.URL, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ref.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	ds.delayNs.Store(int64(150 * time.Millisecond))
	if _, err := ref.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rows := ref.History(sc.RunFilter{Anomalous: true}); len(rows) != 1 {
		t.Fatalf("%d anomalous rows after the slowed refresh, want 1", len(rows))
	}
	if st := ref.AlertStats(); st.Dropped == 0 || st.Delivered != 0 || posts.Load() != 0 {
		t.Fatalf("alert stats %+v, %d webhook posts; want the regression dropped and nothing delivered", st, posts.Load())
	}
}

// TestWithAlertsValidation covers the option's error path.
func TestWithAlertsValidation(t *testing.T) {
	store := sc.NewMemStore()
	baseTables(t, store)
	if _, err := sc.New(chainMVs(), store, sc.WithMemory(1<<20), sc.WithAlerts("", 0)); err == nil {
		t.Fatal("empty webhook URL accepted")
	}
}
