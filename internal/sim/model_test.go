package sim_test

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/opt"
	"github.com/shortcircuit-db/sc/internal/sim"
	"github.com/shortcircuit-db/sc/internal/testutil"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

// memoryTimelineRef is core.MemoryTimeline as a difference array over
// steps, the way core computed it before the schedule: +size at a flagged
// node's step, −size after the step of its last child (its own when it has
// none).
func memoryTimelineRef(p *core.Problem, pl *core.Plan) []int64 {
	n := p.G.Len()
	pos := core.Positions(pl.Order)
	rel := core.ReleasePositions(p.G, pl.Order)
	delta := make([]int64, n+1)
	for i := 0; i < n; i++ {
		if pl.Flagged[i] {
			size := p.ResidentSize(pl, dag.NodeID(i))
			delta[pos[i]] += size
			delta[rel[i]+1] -= size
		}
	}
	out := make([]int64, n)
	var cur int64
	for t := range out {
		cur += delta[t]
		out[t] = cur
	}
	return out
}

// randomOrder returns a topological order of g that picks uniformly among
// the ready nodes at every step.
func randomOrder(rng *rand.Rand, g *dag.Graph) []dag.NodeID {
	waiting := make([]int, g.Len())
	var ready, order []dag.NodeID
	for i := range waiting {
		if waiting[i] = len(g.Parents(dag.NodeID(i))); waiting[i] == 0 {
			ready = append(ready, dag.NodeID(i))
		}
	}
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		id := ready[k]
		ready = append(ready[:k], ready[k+1:]...)
		order = append(order, id)
		for _, c := range g.Children(id) {
			if waiting[c]--; waiting[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	return order
}

// Property: the memory proof is the schedule's unit-time case. On random
// DAGs, orders, flag sets and forms, core.MemoryTimeline equals the
// difference array at every step and PeakMemoryUsage its maximum; and the
// simulator, walking the same schedule on a device whose writes take a
// sliver of a node's compute (so each background write lands before the
// next node places its output), peaks exactly at PeakMemoryUsage of the
// form-free plan with a catalog of that size, and never falls back.
func TestScheduleIsTheMemoryModelProperty(t *testing.T) {
	fast := costmodel.DeviceProfile{DiskReadBW: 1e9, DiskWriteBW: 1e9, MemReadBW: 1e9, MemWriteBW: 1e9, ComputeScale: 1}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := testutil.RandomProblem(rng, 25)
		n := p.G.Len()
		plain := core.NewPlan(randomOrder(rng, p.G))
		plain.Flagged = testutil.RandomFlagged(rng, p)
		offered := *p
		offered.SerializedSizes = make([]int64, n)
		for i := range offered.SerializedSizes {
			offered.SerializedSizes[i] = rng.Int63n(p.Sizes[i] + 1)
		}
		formed := plain.Clone()
		formed.Forms = make([]core.Form, n)
		for i, fl := range formed.Flagged {
			if fl && rng.Intn(2) == 0 {
				formed.Forms[i] = core.Serialized
			}
		}
		for _, c := range []struct {
			p  *core.Problem
			pl *core.Plan
		}{{p, plain}, {&offered, plain}, {&offered, formed}} {
			want := memoryTimelineRef(c.p, c.pl)
			if got := core.MemoryTimeline(c.p, c.pl); !reflect.DeepEqual(got, want) {
				t.Logf("seed %d: timeline %v, difference array %v", seed, got, want)
				return false
			}
			if got := core.PeakMemoryUsage(c.p, c.pl); got != slices.Max(want) {
				t.Logf("seed %d: peak %d, difference array %d", seed, got, slices.Max(want))
				return false
			}
		}

		w := &sim.Workload{G: p.G, Nodes: make([]sim.Node, n)}
		for i := range w.Nodes {
			w.Nodes[i] = sim.Node{Name: p.G.Name(dag.NodeID(i)), OutputBytes: p.Sizes[i], ComputeSeconds: 1}
		}
		peak := core.PeakMemoryUsage(p, plain)
		res, err := sim.Run(context.Background(), w, formed, sim.Config{Device: fast, Memory: peak})
		if err != nil || res.PeakMemory != peak || res.Fallbacks != 0 {
			t.Logf("seed %d: simulated peak %d with %d fallbacks (%v), unit-time peak %d", seed, res.PeakMemory, res.Fallbacks, err, peak)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRun simulates S/C's plan for I/O 1 at 100 GB with a 1.6 %
// catalog, one of the runs behind the benchmark's sim.run layer.
func BenchmarkRun(b *testing.B) {
	d := costmodel.PaperProfile()
	scale := tpcds.ScaleBytes(100)
	mem := tpcds.MemoryForFraction(scale, 0.016)
	w, p, err := tpcds.Build(tpcds.IO1, scale, tpcds.Regular(), mem, d)
	if err != nil {
		b.Fatal(err)
	}
	pl, _, err := opt.Solve(context.Background(), p, opt.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{Device: d, Memory: mem}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := sim.Run(context.Background(), w, pl, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
