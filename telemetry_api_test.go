package sc_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sc "github.com/shortcircuit-db/sc"
)

// TestWithTelemetryTracesRun exercises the facade tracing path: a traced
// session assembles a trace per run, correlates metrics observations with
// the run ID, and exports the spans through a file exporter.
func TestWithTelemetryTracesRun(t *testing.T) {
	store := sc.NewMemStore()
	baseTables(t, store)
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	exp, err := sc.NewFileTraceExporter(path)
	if err != nil {
		t.Fatal(err)
	}
	// A budget, so the chain's parents are kept in the catalog and their
	// readers' spans link to them.
	ref, err := sc.New(chainMVs(), store, sc.WithTelemetry(exp), sc.WithMemory(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if ref.LastTrace() != nil {
		t.Fatal("LastTrace non-nil before any run")
	}
	if _, err := ref.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}

	tr := ref.LastTrace()
	if tr == nil {
		t.Fatal("no trace after a traced run")
	}
	if tr.RunID != "run-000001" {
		t.Fatalf("run ID %q", tr.RunID)
	}
	if len(tr.Spans) != 5 { // root + m1..m4
		t.Fatalf("%d spans, want 5", len(tr.Spans))
	}
	root := tr.Spans[0]
	if root.Name != "refresh" || root.StrAttr("sc.run_id") != tr.RunID {
		t.Fatalf("root span %q attrs %v", root.Name, root.Attrs)
	}
	nodes := map[string]bool{}
	for _, sp := range tr.Spans[1:] {
		if sp.Parent != root.SpanID {
			t.Fatalf("span %q not parented under root", sp.Name)
		}
		nodes[sp.StrAttr("sc.node")] = true
	}
	for _, mv := range []string{"m1", "m2", "m3", "m4"} {
		if !nodes[mv] {
			t.Fatalf("no span for %q (have %v)", mv, nodes)
		}
	}

	// The chain pipeline's critical path is the whole chain. How much of
	// the wall clock it covers depends on the machine's scheduling; the
	// telemetry package checks coverage on synthetic spans.
	if cp := tr.CriticalPath; strings.Join(cp.Chain, ",") != "m1,m2,m3,m4" {
		t.Fatalf("chain %v", cp.Chain)
	}

	// Metrics observations carry the same run ID.
	if o, ok := ref.Metrics().Latest("m1"); !ok || o.RunID != tr.RunID {
		t.Fatalf("observation run ID %q, want %q", o.RunID, tr.RunID)
	}

	// A second refresh gets the next run ID, and its links stay inside its
	// own trace: a run starts with an empty catalog, so each cached parent
	// it reads ran earlier in the same run.
	if _, err := ref.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	second := ref.LastTrace()
	if second.RunID != "run-000002" {
		t.Fatalf("second run ID %q", second.RunID)
	}
	links := 0
	for _, sp := range second.Spans {
		for _, l := range sp.Links {
			links++
			if l.TraceID != second.Spans[0].TraceID {
				t.Fatalf("span %q links to trace %s, outside its own %s", sp.Name, l.TraceID, second.Spans[0].TraceID)
			}
		}
	}
	if links == 0 {
		t.Fatal("the second refresh read no cached parent; the link check saw nothing")
	}

	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d exported payloads, want 2", len(lines))
	}
	if !strings.Contains(lines[0], `"resourceSpans"`) || !strings.Contains(lines[0], "run-000001") {
		t.Fatalf("first payload: %.120s", lines[0])
	}
}

func TestLastTraceNilWithoutTelemetry(t *testing.T) {
	store := sc.NewMemStore()
	baseTables(t, store)
	ref, err := sc.New(chainMVs(), store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ref.LastTrace() != nil {
		t.Fatal("LastTrace non-nil without WithTelemetry")
	}
}
