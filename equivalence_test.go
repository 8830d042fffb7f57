package sc_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	sc "github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/gateway"
	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

// tpcdsPipeline returns the TPC-DS-like real workload's MVs and its base
// tables generated at the given scale factor.
func tpcdsPipeline(t *testing.T, sf float64) ([]sc.MV, map[string]*table.Table) {
	t.Helper()
	ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: sf, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mvs []sc.MV
	for _, n := range tpcds.RealWorkload().Nodes {
		mvs = append(mvs, sc.MV{Name: n.Name, SQL: n.SQL})
	}
	return mvs, ds.Tables
}

// TestRefresherAndGatewayAreOnePath runs the same MVs, tables and options
// once through sc.Refresher and once through a gateway pipeline whose
// tenant slice is the Refresher's memory budget. Both sit on the same
// session code, so after the first observed run they must agree on the
// optimizer's problem, on every flag decision, on the plan — the one
// Optimize returns, the one either explain describes, the one the next
// trigger runs — on the ledger's node rows (times and IDs aside) and on
// every stored MV byte.
func TestRefresherAndGatewayAreOnePath(t *testing.T) {
	const budget = 64 << 20
	ctx := context.Background()
	mvs, tables := tpcdsPipeline(t, 0.1)

	// Library: plan from size guesses, run, re-plan from observations —
	// what one gateway trigger followed by an explain does.
	libStore := sc.NewMemStore()
	for name, tb := range tables {
		if err := sc.SaveTableChunked(libStore, name, tb, sc.EncodingOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := sc.New(mvs, libStore,
		sc.WithMemory(budget),
		sc.WithEncoding(sc.EncodingOptions{}),
		sc.WithConcurrency(2),
		sc.WithLedger(""),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, _, err := ref.Optimize(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Refresh(ctx); err != nil {
		t.Fatal(err)
	}

	// Gateway: the same pipeline under a tenant slice of the same size.
	gwStore := storage.NewMemStore()
	srv, err := gateway.NewServer(gateway.Config{
		GlobalBudget: 4 * budget,
		Concurrency:  2,
		NewStore:     func(string) storage.Store { return gwStore },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec := gateway.PipelineSpec{
		Name: "p", Tenant: "t", TenantSlice: budget,
		Encoding: true, Tables: tables,
	}
	for _, mv := range mvs {
		spec.MVs = append(spec.MVs, gateway.MVSpec{Name: mv.Name, SQL: mv.SQL})
	}
	if err := srv.Register(spec); err != nil {
		t.Fatal(err)
	}
	run, err := srv.Trigger("p")
	if err != nil {
		t.Fatal(err)
	}
	<-run.Done()
	if st := run.Status(); st.State != gateway.StateSucceeded {
		t.Fatalf("gateway run: %+v", st)
	}

	// One problem, one set of decisions.
	libRep, err := ref.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gwRep, err := srv.ExplainPipeline("p")
	if err != nil {
		t.Fatal(err)
	}
	prob := ref.Problem()
	if gwRep.MemoryBytes != prob.Memory {
		t.Fatalf("gateway solves under %d bytes, library under %d", gwRep.MemoryBytes, prob.Memory)
	}
	for _, d := range gwRep.Decisions {
		id := prob.G.Lookup(d.Node)
		if d.SizedBytes != prob.Sizes[id] || d.ScoreSeconds != prob.Scores[id] {
			t.Errorf("%s: gateway weighs %d bytes / %v s, library %d bytes / %v s",
				d.Node, d.SizedBytes, d.ScoreSeconds, prob.Sizes[id], prob.Scores[id])
		}
	}
	if !reflect.DeepEqual(libRep.Decisions, gwRep.Decisions) || !reflect.DeepEqual(libRep.Order, gwRep.Order) {
		t.Errorf("explain differs:\nlibrary %+v\ngateway %+v", libRep, gwRep)
	}

	// One ledger row shape: the same nodes with the same bytes and flags.
	type nodeRow struct {
		OutputBytes, EncodedBytes, KernelFallbacks int64
		Ratio                                      float64
		Flagged                                    bool
	}
	nodeRows := func(runs []ledger.RunSummary) map[string]nodeRow {
		t.Helper()
		if len(runs) != 1 || runs[0].Outcome != ledger.OutcomeSucceeded {
			t.Fatalf("ledger holds %+v, want one succeeded run", runs)
		}
		rows := make(map[string]nodeRow)
		for _, n := range runs[0].Nodes {
			rows[n.Node] = nodeRow{n.OutputBytes, n.EncodedBytes, n.KernelFallbacks, n.Ratio, n.Flagged}
		}
		return rows
	}
	libRows, gwRows := nodeRows(ref.History(sc.RunFilter{})), nodeRows(srv.RunHistory(ledger.Filter{}))
	if len(libRows) != len(mvs) || !reflect.DeepEqual(libRows, gwRows) {
		t.Errorf("ledger node rows differ:\nlibrary %+v\ngateway %+v", libRows, gwRows)
	}

	// One set of MVs.
	for _, mv := range mvs {
		object := mv.Name + ".sct"
		a, err := libStore.Read(object)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gwStore.Read(object)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: library and gateway stored different bytes (%d vs %d)", mv.Name, len(a), len(b))
		}
	}

	// One plan, whoever asks for it. (Last: the trigger is a second run.)
	type planNames struct{ Order, Flagged []string }
	explained := func(rep *sc.ExplainReport) planNames {
		pn := planNames{Order: rep.Order}
		for _, d := range rep.Decisions {
			if d.Flagged {
				pn.Flagged = append(pn.Flagged, d.Node)
			}
		}
		return pn
	}
	libPlan, _, err := ref.Optimize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var optimized planNames
	for _, id := range libPlan.Order {
		optimized.Order = append(optimized.Order, prob.G.Name(id))
		if libPlan.Flagged[id] {
			optimized.Flagged = append(optimized.Flagged, prob.G.Name(id))
		}
	}
	if len(optimized.Flagged) == 0 {
		t.Fatal("the optimised plan flags nothing")
	}
	for who, rep := range map[string]*sc.ExplainReport{"Refresher.Explain": libRep, "gateway explain": gwRep} {
		if pn := explained(rep); !reflect.DeepEqual(pn, optimized) {
			t.Errorf("%s describes %+v, Refresher.Optimize returned %+v", who, pn, optimized)
		}
	}
	next, err := srv.Trigger("p")
	if err != nil {
		t.Fatal(err)
	}
	<-next.Done()
	tr, err := srv.RunTrace(next.ID())
	if err != nil {
		t.Fatal(err)
	}
	st := next.Status()
	if st.State != gateway.StateSucceeded {
		t.Fatalf("second gateway run: %+v", st)
	}
	// Node spans carry their plan step, and the flag unless the run's
	// reservation forced the output to a blocking write after all.
	ranOrder := make([]string, len(mvs))
	var kept []string
	for _, sp := range tr.Spans {
		if node, ok := sp.Attrs["sc.node"].(string); ok {
			ranOrder[sp.Attrs["sc.step"].(int64)] = node
			if sp.Attrs["sc.flagged"].(bool) {
				kept = append(kept, node)
			}
		}
	}
	if !reflect.DeepEqual(ranOrder, optimized.Order) {
		t.Errorf("gateway trigger ran order %v, Refresher.Optimize returned %v", ranOrder, optimized.Order)
	}
	for _, node := range kept {
		if !libPlan.Flagged[prob.G.Lookup(node)] {
			t.Errorf("gateway trigger kept %s in memory, Refresher.Optimize flags only %v", node, optimized.Flagged)
		}
	}
	if len(kept)+st.FallbackWrites != len(optimized.Flagged) {
		t.Errorf("gateway trigger kept %v with %d fallback writes, Refresher.Optimize flags %v", kept, st.FallbackWrites, optimized.Flagged)
	}
}

// TestLongestPathDispatchMatchesNaive: with two or four tokens the
// Controller starts ready nodes by longest remaining path over the seconds
// the previous run observed, not in plan order, each node on its one token.
// On the 12-MV TPC-DS pipeline, on the row path and on the compressed path
// (where concurrent nodes' kernels read shared inputs), the
// optimized refreshes that dispatch this way stay within the Memory Catalog
// budget with no output pushed back to a blocking write, and store every MV
// byte for byte as a session with no Memory Catalog does.
func TestLongestPathDispatchMatchesNaive(t *testing.T) {
	ctx := context.Background()
	mvs, tables := tpcdsPipeline(t, 1)
	var base int64
	for _, tb := range tables {
		base += tb.ByteSize()
	}
	for _, tc := range []struct {
		name       string
		compressed bool
		tokens     int
	}{
		{"row path, 2 tokens", false, 2},
		{"compressed, 2 tokens", true, 2},
		{"row path, 4 tokens", false, 4},
		{"compressed, 4 tokens", true, 4},
	} {
		name, compressed := tc.name, tc.compressed
		open := func(budget int64) (*sc.Refresher, sc.Store) {
			store := sc.NewMemStore()
			opts := []sc.Option{sc.WithMemory(budget), sc.WithConcurrency(tc.tokens)}
			for tname, tb := range tables {
				var err error
				if compressed {
					err = sc.SaveTableChunked(store, tname, tb, sc.EncodingOptions{})
				} else {
					err = sc.SaveTable(store, tname, tb)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if compressed {
				opts = append(opts, sc.WithEncoding(sc.EncodingOptions{}))
			}
			ref, err := sc.New(mvs, store, opts...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ref.Close() })
			return ref, store
		}
		naive, naiveStore := open(0)
		if _, err := naive.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
		ref, store := open(base / 5)
		for run := 0; run < 3; run++ { // the first observes; the rest dispatch by it
			res, err := ref.Refresh(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				continue
			}
			kept := 0
			for _, n := range res.Nodes {
				if n.Flagged {
					kept++
				}
			}
			if kept == 0 || res.FallbackWrites != 0 || res.PeakMemory > base/5 {
				t.Errorf("%s run %d: %d outputs kept, %d fallback writes, catalog peak %d of %d bytes",
					name, run, kept, res.FallbackWrites, res.PeakMemory, base/5)
			}
		}
		for _, mv := range mvs {
			obj := mv.Name + ".sct"
			want, err := naiveStore.Read(obj)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := store.Read(obj); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: MV %s differs from the session without a Memory Catalog (%v)", name, mv.Name, err)
			}
		}
	}
}
