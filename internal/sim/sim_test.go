package sim

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/testutil"
)

const gb = int64(1) << 30

// chainWorkload builds a→b→c with 1GB outputs and fixed compute.
func chainWorkload() *Workload {
	g := dag.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	return &Workload{G: g, Nodes: []Node{
		{Name: "a", OutputBytes: gb, BaseReadBytes: 2 * gb, ComputeSeconds: 1},
		{Name: "b", OutputBytes: gb, ComputeSeconds: 1},
		{Name: "c", OutputBytes: gb, ComputeSeconds: 1},
	}}
}

func defaultCfg() Config {
	return Config{Device: costmodel.PaperProfile(), Memory: 4 * gb}
}

func planFor(w *Workload, flagged ...dag.NodeID) *core.Plan {
	order, err := w.G.TopoSort()
	if err != nil {
		panic(err)
	}
	pl := core.NewPlan(order)
	for _, id := range flagged {
		pl.Flagged[id] = true
	}
	return pl
}

func TestNoFlagBaselineTime(t *testing.T) {
	w := chainWorkload()
	res, err := Run(context.Background(), w, planFor(w), defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	d := costmodel.PaperProfile()
	// Serial: base read 2GB + 3 computes + 3 writes + 2 parent reads.
	want := d.DiskRead(2*gb).Seconds() + 3 + 3*d.DiskWrite(gb).Seconds() + 2*d.DiskRead(gb).Seconds()
	if math.Abs(res.Total-want) > 0.01 {
		t.Fatalf("Total = %v, want ≈ %v", res.Total, want)
	}
	if res.PeakMemory != 0 || res.Fallbacks != 0 {
		t.Fatalf("unexpected memory use: %+v", res)
	}
}

func TestFlaggingShortensRun(t *testing.T) {
	w := chainWorkload()
	base, err := Run(context.Background(), w, planFor(w), defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Run(context.Background(), w, planFor(w, 0, 1), defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Total >= base.Total {
		t.Fatalf("flagged run (%v) not faster than baseline (%v)", opt.Total, base.Total)
	}
	// Flagged reads happen at memory speed: read seconds drop.
	if opt.ReadSeconds >= base.ReadSeconds {
		t.Fatalf("read seconds did not drop: %v vs %v", opt.ReadSeconds, base.ReadSeconds)
	}
	// Blocking writes for a and b are gone.
	if opt.WriteSeconds >= base.WriteSeconds {
		t.Fatalf("write seconds did not drop: %v vs %v", opt.WriteSeconds, base.WriteSeconds)
	}
}

func TestEndToEndWaitsForBackgroundWrites(t *testing.T) {
	// Single flagged childless node: end-to-end includes materialization.
	g := dag.New()
	g.AddNode("only")
	w := &Workload{G: g, Nodes: []Node{{Name: "only", OutputBytes: gb, ComputeSeconds: 0.1}}}
	res, err := Run(context.Background(), w, planFor(w, 0), defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	d := costmodel.PaperProfile()
	minTotal := float64(gb)/d.DiskWriteBW + 0.1
	if res.Total < minTotal*0.99 {
		t.Fatalf("Total = %v ignores background write (min %v)", res.Total, minTotal)
	}
	// But the write is NOT blocking: foreground write seconds are zero.
	if res.WriteSeconds != 0 {
		t.Fatalf("WriteSeconds = %v for flagged node", res.WriteSeconds)
	}
}

func TestMemoryBoundRespectedWithFallback(t *testing.T) {
	w := chainWorkload()
	cfg := defaultCfg()
	cfg.Memory = gb // only one output fits at a time
	res, err := Run(context.Background(), w, planFor(w, 0, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakMemory > cfg.Memory {
		t.Fatalf("peak %d exceeds memory %d", res.PeakMemory, cfg.Memory)
	}
	// a is released only after b runs AND materialization completes; b's
	// flagging attempt may fall back depending on timing — either way the
	// bound holds and the run completes.
	if res.Total <= 0 {
		t.Fatal("zero total")
	}
}

func TestLRUModeCachesRepeatedReads(t *testing.T) {
	// Diamond: both b and c read a's output; LRU caches it after b's read.
	p := testutil.Diamond()
	w := &Workload{G: p.G, Nodes: []Node{
		{Name: "r", OutputBytes: gb, BaseReadBytes: gb, ComputeSeconds: 0.5},
		{Name: "a", OutputBytes: gb, ComputeSeconds: 0.5},
		{Name: "b", OutputBytes: gb, ComputeSeconds: 0.5},
		{Name: "c", OutputBytes: gb, ComputeSeconds: 0.5},
	}}
	base, err := Run(context.Background(), w, planFor(w), defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultCfg()
	cfg.LRU = true
	lru, err := Run(context.Background(), w, planFor(w), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// r's output is read by both a and b: second read hits the cache.
	if lru.ReadSeconds >= base.ReadSeconds {
		t.Fatalf("LRU read %v not faster than base %v", lru.ReadSeconds, base.ReadSeconds)
	}
	// LRU never avoids blocking writes, unlike S/C.
	if math.Abs(lru.WriteSeconds-base.WriteSeconds) > 1e-9 {
		t.Fatalf("LRU writes %v != base %v", lru.WriteSeconds, base.WriteSeconds)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRUCache(10)
	c.insert(1, 4)
	c.insert(2, 4)
	if !c.touch(1) { // refresh 1; 2 is now LRU
		t.Fatal("miss on resident key")
	}
	c.insert(3, 4) // evicts 2
	if c.touch(2) {
		t.Fatal("2 should have been evicted")
	}
	if !c.touch(1) || !c.touch(3) {
		t.Fatal("1 and 3 should be resident")
	}
	c.insert(9, 100) // larger than capacity: not admitted
	if c.touch(9) {
		t.Fatal("oversized entry admitted")
	}
}

func TestWorkersScaleRuntime(t *testing.T) {
	w := chainWorkload()
	cfg1 := defaultCfg()
	cfg5 := defaultCfg()
	cfg5.Workers = 5
	r1, err := Run(context.Background(), w, planFor(w), cfg1)
	if err != nil {
		t.Fatal(err)
	}
	r5, err := Run(context.Background(), w, planFor(w), cfg5)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r1.Total / r5.Total
	if ratio < 4 || ratio > 6 {
		t.Fatalf("5-worker speedup = %v, want ≈ 5", ratio)
	}
}

func TestSpeedupConsistentAcrossWorkers(t *testing.T) {
	// Table V's shape: S/C's speedup is roughly constant as workers scale.
	w := chainWorkload()
	var speedups []float64
	for _, workers := range []int{1, 3, 5} {
		cfg := defaultCfg()
		cfg.Workers = workers
		base, err := Run(context.Background(), w, planFor(w), cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Run(context.Background(), w, planFor(w, 0, 1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		speedups = append(speedups, opt.Speedup(base))
	}
	for i := 1; i < len(speedups); i++ {
		if math.Abs(speedups[i]-speedups[0]) > 0.15*speedups[0] {
			t.Fatalf("speedups vary too much across workers: %v", speedups)
		}
	}
}

func TestValidateRejectsBadWorkloads(t *testing.T) {
	g := dag.New()
	g.AddNode("a")
	bad := []*Workload{
		{G: nil},
		{G: g, Nodes: nil},
		{G: g, Nodes: []Node{{OutputBytes: -1}}},
		{G: g, Nodes: []Node{{ComputeSeconds: math.NaN()}}},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRunRejectsBadPlan(t *testing.T) {
	w := chainWorkload()
	pl := &core.Plan{Order: []dag.NodeID{2, 1, 0}, Flagged: make([]bool, 3)}
	if _, err := Run(context.Background(), w, pl, defaultCfg()); err == nil {
		t.Fatal("reversed order accepted")
	}
}

// A plan whose Flagged is not one entry per node is an error, not a panic.
func TestRunRejectsMisSizedFlagged(t *testing.T) {
	w := chainWorkload()
	order, err := w.G.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	for _, flagged := range [][]bool{nil, make([]bool, w.G.Len()-1)} {
		pl := &core.Plan{Order: order, Flagged: flagged}
		if _, err := Run(context.Background(), w, pl, defaultCfg()); err == nil {
			t.Errorf("%d flags for %d nodes accepted", len(flagged), w.G.Len())
		}
	}
}

func TestTimelineIsContiguousAndOrdered(t *testing.T) {
	w := chainWorkload()
	res, err := Run(context.Background(), w, planFor(w, 0), defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) != 3 {
		t.Fatalf("timeline entries = %d", len(res.Timeline))
	}
	for i, nt := range res.Timeline {
		if nt.End < nt.Start {
			t.Fatalf("entry %d ends before it starts: %+v", i, nt)
		}
		if i > 0 && nt.Start < res.Timeline[i-1].End-1e-9 {
			t.Fatalf("entry %d overlaps previous: %+v", i, nt)
		}
	}
}

// TestEventsCarryTheVirtualClock: every event sits At Base plus the virtual
// clock, and NodeDone reports the node's duration like the real engine, so
// a trace collector needs no simulator mode.
func TestEventsCarryTheVirtualClock(t *testing.T) {
	w := chainWorkload()
	cfg := defaultCfg()
	cfg.Base = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var events []obs.Event
	cfg.Observer = obs.Func(func(e obs.Event) { events = append(events, e) })
	res, err := Run(context.Background(), w, planFor(w, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	image := func(sec float64) time.Time { return cfg.Base.Add(vclock(sec)) }
	done := 0
	for i, e := range events {
		if i > 0 && e.At.Before(events[i-1].At) {
			t.Fatalf("event %d (%v) precedes event %d", i, e.Kind, i-1)
		}
		switch e.Kind {
		case obs.NodeStart:
			if nt := res.Timeline[e.Step]; !e.At.Equal(image(nt.Start)) {
				t.Fatalf("%s starts At %v, timeline says %v", e.Node, e.At, image(nt.Start))
			}
		case obs.NodeDone:
			nt := res.Timeline[e.Step]
			if !e.At.Equal(image(nt.End)) || e.Elapsed != vclock(nt.End-nt.Start) || e.Elapsed <= 0 {
				t.Fatalf("%s done At %v after %v, timeline says %v after %v", e.Node, e.At, e.Elapsed, image(nt.End), vclock(nt.End-nt.Start))
			}
			done++
		}
	}
	if last := events[len(events)-1]; done != 3 || last.At.After(image(res.Total)) {
		t.Fatalf("%d NodeDone events, last event At %v, run ends %v", done, last.At, image(res.Total))
	}
}

// Property: flagging any feasible subset never makes the run slower than
// the empty flagging, and memory stays within bounds.
func TestFlaggingNeverHurtsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := testutil.RandomProblem(rng, 15)
		w := &Workload{G: p.G, Nodes: make([]Node, p.G.Len())}
		for i := range w.Nodes {
			w.Nodes[i] = Node{
				Name:           p.G.Name(dag.NodeID(i)),
				OutputBytes:    int64(rng.Intn(1000)+1) * (1 << 20),
				BaseReadBytes:  int64(rng.Intn(500)) * (1 << 20),
				ComputeSeconds: rng.Float64(),
			}
		}
		order, err := p.G.TopoSort()
		if err != nil {
			return false
		}
		cfg := Config{Device: costmodel.PaperProfile(), Memory: 1 << 40}
		base, err := Run(context.Background(), w, core.NewPlan(order), cfg)
		if err != nil {
			return false
		}
		pl := core.NewPlan(order)
		for i := range pl.Flagged {
			pl.Flagged[i] = rng.Intn(2) == 0
		}
		opt, err := Run(context.Background(), w, pl, cfg)
		if err != nil {
			return false
		}
		if opt.PeakMemory > cfg.Memory {
			return false
		}
		// Flagging can cost at most the in-memory creates (which only pay
		// off when overlapped with downstream work); it must never be
		// slower than that overhead.
		var memCreates float64
		for i, f := range pl.Flagged {
			if f {
				memCreates += float64(w.Nodes[i].OutputBytes) / cfg.Device.MemWriteBW
			}
		}
		return opt.Total <= base.Total+memCreates+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// The simulator models the paper's one residency form. A plan that names
// the serialized form for some flagged nodes simulates exactly as the same
// plan without Forms: result, timeline and every event.
func TestRunIgnoresPlanForms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := testutil.RandomProblem(rng, 15)
		w := &Workload{G: p.G, Nodes: make([]Node, p.G.Len())}
		for i := range w.Nodes {
			w.Nodes[i] = Node{
				Name:           p.G.Name(dag.NodeID(i)),
				OutputBytes:    int64(rng.Intn(1000)+1) * (1 << 20),
				BaseReadBytes:  int64(rng.Intn(500)) * (1 << 20),
				ComputeSeconds: rng.Float64(),
			}
		}
		order, err := p.G.TopoSort()
		if err != nil {
			return false
		}
		plain := core.NewPlan(order)
		for i := range plain.Flagged {
			plain.Flagged[i] = rng.Intn(2) == 0
		}
		formed := plain.Clone()
		formed.Forms = make([]core.Form, len(formed.Flagged))
		for i, fl := range formed.Flagged {
			if fl && rng.Intn(2) == 0 {
				formed.Forms[i] = core.Serialized
			}
		}
		run := func(pl *core.Plan) (*Result, []obs.Event) {
			var events []obs.Event
			cfg := Config{Device: costmodel.PaperProfile(), Memory: 2 << 30, Base: time.Unix(0, 0),
				Observer: obs.Func(func(e obs.Event) { events = append(events, e) })}
			res, err := Run(context.Background(), w, pl, cfg)
			if err != nil {
				t.Error(err)
			}
			return res, events
		}
		wantRes, wantEv := run(plain)
		gotRes, gotEv := run(formed)
		return reflect.DeepEqual(gotRes, wantRes) && reflect.DeepEqual(gotEv, wantEv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
