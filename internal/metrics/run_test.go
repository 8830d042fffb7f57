package metrics_test

import (
	"context"
	"testing"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/session"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
)

// What records observations is session.Pipeline.Run, from the run's result;
// these tests drive it over a two-node pipeline on the real engine.
func runPipeline(t *testing.T, env session.RunEnv) (*session.Pipeline, *exec.RunResult) {
	t.Helper()
	store := storage.NewMemStore()
	sales := table.New(table.NewSchema(
		table.Column{Name: "day", Type: table.Int},
		table.Column{Name: "amount", Type: table.Float},
	))
	for i := 0; i < 64; i++ {
		if err := sales.AppendRow(table.IntValue(int64(i%4)), table.FloatValue(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := exec.SaveTable(store, "sales", sales); err != nil {
		t.Fatal(err)
	}
	p, err := session.NewPipeline("p", []exec.NodeSpec{
		{Name: "a", SQL: `SELECT day, SUM(amount) AS revenue FROM sales GROUP BY day`},
		{Name: "b", SQL: `SELECT day FROM a WHERE revenue >= 10`},
	}, store)
	if err != nil {
		t.Fatal(err)
	}
	p.Encoding = &encoding.Options{}
	topo, err := p.Graph.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), &core.Plan{Order: topo, Flagged: make([]bool, p.Graph.Len())}, env)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

func TestRecorderCapturesEncodedBytes(t *testing.T) {
	p, res := runPipeline(t, session.RunEnv{})
	for _, n := range res.Nodes {
		o, ok := p.Metrics.Latest(n.Name)
		if !ok || o.EncodedBytes != n.EncodedSize || o.OutputBytes != n.OutputBytes || o.EncodedBytes == 0 || o.OutputBytes == 0 {
			t.Fatalf("observation of %s = %+v, node metrics %+v", n.Name, o, n)
		}
	}
	// Only executed nodes are observed: the base table the run decoded and
	// the encodes it performed are telemetry, not observations.
	if _, ok := p.Metrics.Latest("sales"); ok {
		t.Fatal("a base-table read recorded as an observation")
	}
}

func TestRecorderStampsRunID(t *testing.T) {
	p, _ := runPipeline(t, session.RunEnv{RunID: "run-000007"})
	for _, name := range []string{"a", "b"} {
		if o, ok := p.Metrics.Latest(name); !ok || o.RunID != "run-000007" {
			t.Fatalf("observation of %s = %+v", name, o)
		}
	}
}
