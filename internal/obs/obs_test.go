package obs_test

import (
	"context"
	"sync"
	"testing"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
)

// TestEmitNilSink: emitting into a nil observer is a safe no-op, and Multi
// elides nil members.
func TestEmitNilSink(t *testing.T) {
	obs.Emit(nil, obs.Event{Kind: obs.NodeStart}) // must not panic

	if got := obs.Multi(nil, nil); got != nil {
		t.Fatalf("Multi(nil, nil) = %v, want nil", got)
	}
	var n int
	one := obs.Func(func(obs.Event) { n++ })
	if got := obs.Multi(nil, one, nil); got == nil {
		t.Fatal("Multi dropped its only live observer")
	} else {
		got.OnEvent(obs.Event{})
	}
	if n != 1 {
		t.Fatalf("live observer saw %d events, want 1", n)
	}
}

// TestMultiFanoutOrder: Multi delivers to every observer in argument order.
func TestMultiFanoutOrder(t *testing.T) {
	var order []string
	a := obs.Func(func(obs.Event) { order = append(order, "a") })
	b := obs.Func(func(obs.Event) { order = append(order, "b") })
	obs.Multi(a, nil, b).OnEvent(obs.Event{})
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("fan-out order = %v, want [a b]", order)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[obs.Kind]string{
		obs.NodeStart:  "NodeStart",
		obs.NodeDone:   "NodeDone",
		obs.KernelDone: "KernelDone",
		obs.DecodeDone: "DecodeDone",
	} {
		if got := k.String(); got != want {
			t.Fatalf("Kind %d String = %q, want %q", int(k), got, want)
		}
	}
	if got := obs.Kind(99).String(); got != "Kind(99)" {
		t.Fatalf("unknown kind String = %q", got)
	}
}

// seqLog records events with their arrival order.
type seqLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *seqLog) OnEvent(e obs.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// TestControllerEventOrdering runs a vectorized join workload and checks
// the per-node protocol: NodeStart strictly before KernelDone strictly
// before NodeDone, with the join-kernel counters populated.
func TestControllerEventOrdering(t *testing.T) {
	st := storage.NewMemStore()
	enc := encoding.Options{ChunkRows: 32}
	facts := table.New(table.NewSchema(
		table.Column{Name: "item", Type: table.Str},
		table.Column{Name: "qty", Type: table.Int},
	))
	for i := 0; i < 200; i++ {
		if err := facts.AppendRow(
			table.StrValue([]string{"ale", "bock", "stout"}[i%3]),
			table.IntValue(int64(i%7)),
		); err != nil {
			t.Fatal(err)
		}
	}
	dims := table.New(table.NewSchema(
		table.Column{Name: "item", Type: table.Str},
		table.Column{Name: "label", Type: table.Str},
	))
	for _, r := range [][2]string{{"ale", "A"}, {"stout", "S"}} {
		if err := dims.AppendRow(table.StrValue(r[0]), table.StrValue(r[1])); err != nil {
			t.Fatal(err)
		}
	}
	for name, tb := range map[string]*table.Table{"facts": facts, "dims": dims} {
		if err := exec.SaveTableChunked(st, name, tb, enc); err != nil {
			t.Fatal(err)
		}
	}
	w := &exec.Workload{Nodes: []exec.NodeSpec{
		{Name: "labeled", SQL: `
			SELECT f.item AS item, f.qty AS qty, d.label AS label
			FROM facts f JOIN dims d ON f.item = d.item`},
		{Name: "item_counts", SQL: `SELECT item, COUNT(*) AS n FROM labeled GROUP BY item`},
	}}
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	plan := core.NewPlan(topo)
	for i := range plan.Flagged {
		plan.Flagged[i] = true
	}
	log := &seqLog{}
	ctl := &exec.Controller{
		Store: st, Mem: memcat.New(1 << 30),
		Encoding: &enc, Obs: log,
	}
	if _, err := ctl.Run(context.Background(), w, g, plan); err != nil {
		t.Fatal(err)
	}

	pos := func(kind obs.Kind, node string) int {
		for i, e := range log.events {
			if e.Kind == kind && e.Node == node {
				return i
			}
		}
		return -1
	}
	for _, node := range []string{"labeled", "item_counts"} {
		start, kernel, done := pos(obs.NodeStart, node), pos(obs.KernelDone, node), pos(obs.NodeDone, node)
		if start < 0 || kernel < 0 || done < 0 {
			t.Fatalf("%s: missing events (start=%d kernel=%d done=%d)", node, start, kernel, done)
		}
		if !(start < kernel && kernel < done) {
			t.Fatalf("%s: event order start=%d kernel=%d done=%d, want start < kernel < done",
				node, start, kernel, done)
		}
	}

	ke := log.events[pos(obs.KernelDone, "labeled")]
	if ke.JoinBuildRows != 2 {
		t.Fatalf("JoinBuildRows = %d, want 2 (dims rows hashed)", ke.JoinBuildRows)
	}
	if ke.JoinProbeRows != int64(facts.NumRows()) {
		t.Fatalf("JoinProbeRows = %d, want %d", ke.JoinProbeRows, facts.NumRows())
	}
	if ke.Lowered == 0 {
		t.Fatal("join node reported no lowered operators")
	}
	// The aggregate over the join's output must run on the kernels too.
	if pe := log.events[pos(obs.KernelDone, "item_counts")]; pe.Lowered == 0 {
		t.Fatal("aggregate node reported no lowered operators")
	}
}
