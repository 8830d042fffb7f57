package sc_test

import (
	"context"
	"path/filepath"
	"testing"

	sc "github.com/shortcircuit-db/sc"
)

// TestWithLedgerRecordsHistory pins the library facade: WithLedger records
// every Refresh into the run ledger, History returns them newest first,
// Baselines exposes the learned per-node means, and the NDJSON file is
// replayed by a fresh session.
func TestWithLedgerRecordsHistory(t *testing.T) {
	store := sc.NewMemStore()
	baseTables(t, store)
	path := filepath.Join(t.TempDir(), "runs.ndjson")
	ref, err := sc.New(chainMVs(), store, sc.WithMemory(1<<20), sc.WithLedger(path))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ref.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	hist := ref.History(sc.RunFilter{})
	if len(hist) != 3 {
		t.Fatalf("history = %d runs, want 3", len(hist))
	}
	latest := hist[0]
	if latest.Outcome != "succeeded" || len(latest.Nodes) != 4 {
		t.Fatalf("latest run: %+v", latest)
	}
	if latest.WallSeconds <= 0 || len(latest.CritPath) == 0 {
		t.Fatalf("summary missing record-derived fields: %+v", latest)
	}
	bs := ref.Baselines()
	if len(bs) != 4 {
		t.Fatalf("baselines = %+v, want all 4 nodes", bs)
	}
	for _, b := range bs {
		if b.Samples != 3 {
			t.Fatalf("baseline %s samples = %d, want 3", b.Node, b.Samples)
		}
	}
	// Limit filter narrows the view.
	if got := ref.History(sc.RunFilter{Limit: 1}); len(got) != 1 || got[0].RunID != latest.RunID {
		t.Fatalf("limit filter: %+v", got)
	}

	// A fresh session over the same file replays the history.
	ref2, err := sc.New(chainMVs(), store, sc.WithMemory(1<<20), sc.WithLedger(path))
	if err != nil {
		t.Fatal(err)
	}
	if got := ref2.History(sc.RunFilter{}); len(got) != 3 {
		t.Fatalf("replayed history = %d runs, want 3", len(got))
	}
	if bs := ref2.Baselines(); len(bs) != 4 || bs[0].Samples != 3 {
		t.Fatalf("replayed baselines: %+v", bs)
	}

	// Without the option, history is simply absent.
	ref3, err := sc.New(chainMVs(), store, sc.WithMemory(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref3.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := ref3.History(sc.RunFilter{}); got != nil {
		t.Fatalf("no-ledger session returned history: %+v", got)
	}
}

// TestLedgerOnlySessionTracesNothing: WithLedger alone opens no trace — no
// LastTrace and no trace ID on the row — yet the row has every node and a
// critical path. With WithTelemetry as well the row carries the trace ID
// of LastTrace.
func TestLedgerOnlySessionTracesNothing(t *testing.T) {
	store := sc.NewMemStore()
	baseTables(t, store)
	ref, err := sc.New(chainMVs(), store, sc.WithMemory(1<<20), sc.WithLedger(""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	row := ref.History(sc.RunFilter{})[0]
	if ref.LastTrace() != nil || row.TraceID != "" {
		t.Fatalf("a ledger-only session traced: last trace %v, row trace id %q", ref.LastTrace(), row.TraceID)
	}
	if len(row.Nodes) != 4 || len(row.CritPath) == 0 || row.RunID == "" {
		t.Fatalf("ledger-only row: %+v", row)
	}

	traced, err := sc.New(chainMVs(), store, sc.WithMemory(1<<20), sc.WithLedger(""), sc.WithTelemetry(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traced.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	row, tr := traced.History(sc.RunFilter{})[0], traced.LastTrace()
	if tr == nil || row.TraceID == "" || row.TraceID != tr.Spans[0].TraceID.String() || row.RunID != tr.RunID {
		t.Fatalf("traced row %q/%q, last trace %+v", row.TraceID, row.RunID, tr)
	}
}

// TestRunEncodedBytesSumsTheNodes: a row's run-level encoded bytes are the
// sum of its nodes' on the row path and the compressed path alike.
func TestRunEncodedBytesSumsTheNodes(t *testing.T) {
	for _, opts := range [][]sc.Option{nil, {sc.WithEncoding(sc.EncodingOptions{})}} {
		store := sc.NewMemStore()
		baseTables(t, store)
		ref, err := sc.New(chainMVs(), store, append(opts, sc.WithMemory(1<<20), sc.WithLedger(""))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
		row := ref.History(sc.RunFilter{})[0]
		var sum int64
		for _, n := range row.Nodes {
			sum += n.EncodedBytes
		}
		if sum == 0 || row.EncodedBytes != sum {
			t.Errorf("%d options: run encoded_bytes %d, nodes sum to %d", len(opts), row.EncodedBytes, sum)
		}
	}
}
