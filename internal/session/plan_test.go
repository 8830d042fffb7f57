package session

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/metrics"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

// pinnedPipeline is the 12-MV real workload after two refreshes' worth of
// fixed synthetic observations: odd nodes ran unflagged (a blocking write
// was observed), even ones flagged (none was), every fourth node's latest
// observation has no encoded size, and top_items was never observed.
func pinnedPipeline(t *testing.T, enc bool) *Pipeline {
	t.Helper()
	p, err := NewPipeline("pin", tpcds.RealWorkload().Nodes, storage.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	p.Device = costmodel.PaperProfile()
	if enc {
		p.Encoding = &encoding.Options{}
	}
	for round := 0; round < 2; round++ {
		for i, n := range p.Workload.Nodes {
			if n.Name == "top_items" {
				continue
			}
			o := metrics.Observation{Name: n.Name, OutputBytes: int64(i+1+round) * 300_001}
			if round == 0 || i%4 != 3 {
				o.EncodedBytes = o.OutputBytes / int64(3+i%3)
			}
			if i%2 == 1 {
				o.WriteTime = time.Duration(i) * 3_700_000
			}
			p.Metrics.Record(o)
		}
	}
	return p
}

// TestProblemPinned holds Problem to the sizes and scores the three
// spellings of the §IV formula produced before they became one, bit for
// bit: the plans, and through them every byte a refresh moves, follow from
// these numbers.
func TestProblemPinned(t *testing.T) {
	type node struct {
		name  string
		size  int64
		score uint64 // math.Float64bits
	}
	cases := []struct {
		name     string
		encoding bool
		want     []node
	}{
		{name: "row path", want: []node{
			{"ss_1999", 600002, 0x3f9732a0f843da31},          // 0.022654071 s
			{"cs_1999", 900003, 0x3f8b27629a7ef1ce},          // 0.013258715 s
			{"ws_1999", 1200004, 0x3fa06ef4a1ca6206},         // 0.032096524 s
			{"sr_agg", 1500005, 0x3f9b8f7b43d45162},          // 0.026914526 s
			{"store_pl", 1800006, 0x3fb5fa91f5131a98},        // 0.085854647 s
			{"catalog_pl", 2100007, 0x3fa4c5a2949d8efa},      // 0.040570336 s
			{"web_pl", 2400008, 0x3fb058049b3ca94b},          // 0.063843048 s
			{"store_net", 2700009, 0x3f9a858793dd97f6},       // 0.025900000 s
			{"category_report", 3000010, 0x3fa8b5d49ee46d64}, // 0.048262257 s
			{"monthly_trend", 3300011, 0x3fa10cb295e9e1b1},   // 0.033300000 s
			{"channel_compare", 3600012, 0x3fb8788edcfd1b9f}, // 0.095589570 s
			{"top_items", 1048576, 0x3f9163e6f404380d},       // 0.016982659 s
		}},
		{name: "encoding", encoding: true, want: []node{
			{"ss_1999", 200000, 0x3f7fdf5167595e1e},         // 0.007781332 s
			{"cs_1999", 225000, 0x3f7934545f419dc9},         // 0.006153421 s
			{"ws_1999", 240000, 0x3f7aa76136037abc},         // 0.006507282 s
			{"sr_agg", 500001, 0x3f90c80f5667c946},          // 0.016388168 s
			{"store_pl", 450001, 0x3f95f6a198a7bd5a},        // 0.021448636 s
			{"catalog_pl", 420001, 0x3f976f71b07a0e6d},      // 0.022886063 s
			{"web_pl", 800002, 0x3f95b3f77a05bbbd},          // 0.021194331 s
			{"store_net", 675002, 0x3f9a858793dd97f6},       // 0.025900000 s
			{"category_report", 600002, 0x3f83903c22c5fda6}, // 0.009552450 s
			{"monthly_trend", 1100003, 0x3fa10cb295e9e1b1},  // 0.033300000 s
			{"channel_compare", 900003, 0x3f982fcffc572907}, // 0.023619890 s
			{"top_items", 278389, 0x3f72adcefd201e25},       // 0.004560288 s
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := pinnedPipeline(t, tc.encoding).Problem(4 << 20)
			if pr.Memory != 4<<20 || len(pr.Sizes) != len(tc.want) || len(pr.Pricing) != len(tc.want) {
				t.Fatalf("memory %d, %d sizes, %d pricings", pr.Memory, len(pr.Sizes), len(pr.Pricing))
			}
			for i, w := range tc.want {
				if name := pr.G.Name(dag.NodeID(i)); name != w.name {
					t.Fatalf("node %d is %s, want %s", i, name, w.name)
				}
				if pr.Sizes[i] != w.size || math.Float64bits(pr.Scores[i]) != w.score {
					t.Errorf("%s: %d bytes, score %#x (%.9f s); want %d bytes, %#x (%.9f s)", w.name,
						pr.Sizes[i], math.Float64bits(pr.Scores[i]), pr.Scores[i], w.size, w.score, math.Float64frombits(w.score))
				}
				// What Explain reports is what was priced: the parts sum
				// to the score, to the nanosecond the model computes in.
				np := pr.Pricing[i]
				if sum := np.ReadSaveSeconds + np.WriteSaveSeconds; math.Abs(sum-pr.Scores[i]) > 1e-9 {
					t.Errorf("%s: parts %v + %v s do not sum to the score %v s", w.name, np.ReadSaveSeconds, np.WriteSaveSeconds, pr.Scores[i])
				}
				if (np.PredictedBytes != 0) != tc.encoding {
					t.Errorf("%s: predicted %d bytes with encoding=%v", w.name, np.PredictedBytes, tc.encoding)
				}
			}
		})
	}
}

// TestPlanSolvesTheProblemItExplains: Plan prices the observations once and
// hands back that pricing with the solved plan, and Explain of the pair
// reports the knapsack's own numbers.
func TestPlanSolvesTheProblemItExplains(t *testing.T) {
	p := pinnedPipeline(t, true)
	pr, plan, st, err := p.Plan(context.Background(), 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Problem(1 << 20); !reflect.DeepEqual(pr.Sizes, want.Sizes) || !reflect.DeepEqual(pr.Scores, want.Scores) {
		t.Fatalf("Plan solved %+v, Problem is %+v", pr.Problem, want.Problem)
	}
	rep := p.Explain(pr, plan)
	if rep.PeakBytes != st.PeakMemory || rep.TotalScoreSeconds != st.Score || rep.FlaggedCount == 0 || rep.FlaggedCount == len(rep.Decisions) {
		t.Fatalf("explain peak %d score %v flagged %d/%d; solve reported peak %d score %v",
			rep.PeakBytes, rep.TotalScoreSeconds, rep.FlaggedCount, len(rep.Decisions), st.PeakMemory, st.Score)
	}
	for _, d := range rep.Decisions {
		id := p.Graph.Lookup(d.Node)
		if d.ScoreSeconds != pr.Scores[id] || d.SizedBytes != pr.Sizes[id] || d.Flagged != plan.Flagged[id] ||
			d.ReadSaveSeconds != pr.Pricing[id].ReadSaveSeconds || d.WriteSaveSeconds != pr.Pricing[id].WriteSaveSeconds {
			t.Errorf("%s: decision %+v, priced %+v at %d bytes / %v s", d.Node, d, pr.Pricing[id], pr.Sizes[id], pr.Scores[id])
		}
	}
}

// TestScoresPreferObservedWriteTime: an observed blocking write replaces the
// device model's estimate of what the node saves by not blocking on it.
func TestScoresPreferObservedWriteTime(t *testing.T) {
	p := testPipeline(t)
	p.Device = costmodel.PaperProfile()
	p.Metrics.Record(metrics.Observation{Name: "a", OutputBytes: 1 << 30})
	p.Metrics.Record(metrics.Observation{Name: "b", OutputBytes: 1 << 30})
	modelOnly := p.Problem(0).Scores
	// Record a write 10x slower than the model predicts for node a.
	p.Metrics.Record(metrics.Observation{Name: "a", OutputBytes: 1 << 30, WriteTime: 10 * p.Device.DiskWrite(1<<30)})
	observed := p.Problem(0).Scores
	if observed[0] <= modelOnly[0] {
		t.Fatalf("observed slow write did not raise score: %v vs %v", observed[0], modelOnly[0])
	}
	if observed[1] != modelOnly[1] {
		t.Fatal("unobserved node score changed")
	}
}

// TestScoresUseDiskSizes: with Encoding the disk terms move the encoded
// bytes, so a well-compressed node saves less — and an observed write still
// wins over the model.
func TestScoresUseDiskSizes(t *testing.T) {
	p := testPipeline(t)
	p.Device = costmodel.PaperProfile()
	p.Metrics.Record(metrics.Observation{Name: "a", OutputBytes: 10 << 20, EncodedBytes: 1 << 20})
	plain := p.Problem(0)
	p.Encoding = &encoding.Options{}
	comp := p.Problem(0)
	if plain.Sizes[0] != 10<<20 || comp.Sizes[0] != 1<<20 {
		t.Fatalf("knapsack weighs %d bytes raw, %d encoded", plain.Sizes[0], comp.Sizes[0])
	}
	if comp.Scores[0] >= plain.Scores[0] {
		t.Fatalf("compressed disk sizes should shrink node a's score: %f vs %f", comp.Scores[0], plain.Scores[0])
	}
	p.Metrics.Record(metrics.Observation{Name: "a", OutputBytes: 10 << 20, EncodedBytes: 1 << 20, WriteTime: 3 * time.Second})
	if withObs := p.Problem(0).Scores[0]; withObs <= comp.Scores[0] {
		t.Fatalf("observed 3s write should dominate: %f vs %f", withObs, comp.Scores[0])
	}
}

// TestScoresNonNegative: where keeping a node in memory would cost time
// (a device whose memory is slower than its disk) the parts say so and the
// score clamps at zero.
func TestScoresNonNegative(t *testing.T) {
	p := testPipeline(t)
	p.Device = costmodel.PaperProfile()
	p.Device.MemReadBW, p.Device.MemWriteBW = 1, 1
	pr := p.Problem(0)
	for i, sc := range pr.Scores {
		if np := pr.Pricing[i]; sc != 0 || np.ReadSaveSeconds+np.WriteSaveSeconds >= 0 {
			t.Fatalf("node %d: score %v from parts %+v, want 0 from a negative sum", i, sc, np)
		}
	}
}

// TestPlanFixedPoint runs the refresh loop at the io-bound benchmark's
// shape — the 12-MV pipeline on a modelled 60/40 MB/s device, serial, a
// 20 % budget that holds ss_1999's serialized bytes and not its rows — and
// requires three consecutive refreshes to end on one plan: the same order,
// flag set and forms. Between the first of them and the rest ss_1999 goes
// from a node priced at the blocking write it was observed to pay to one
// priced by the device model (a flagged node observes no blocking write), so
// a second chance whose outcome depended on that would flip the plan back
// and forth.
func TestPlanFixedPoint(t *testing.T) {
	ctx := context.Background()
	ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mem := storage.NewMemStore()
	for name, tb := range ds.Tables {
		if err := exec.SaveTable(mem, name, tb); err != nil {
			t.Fatal(err)
		}
	}
	// Sleeps run at 5 % of the modelled time; the observed write times the
	// scores are built from shrink with them, which only widens the gap
	// between the two ways ss_1999 gets priced.
	dev := costmodel.DeviceProfile{
		DiskReadBW: 60e6, DiskWriteBW: 40e6, DiskLatency: 2 * time.Millisecond,
		MemReadBW: 10e9, MemWriteBW: 10e9, ComputeScale: 1,
	}
	store := &storage.Throttled{Inner: mem, ReadBWBps: dev.DiskReadBW, WriteBWBps: dev.DiskWriteBW, Latency: dev.DiskLatency, SleepScale: 0.05}
	p, err := NewPipeline("io", tpcds.RealWorkload().Nodes, store)
	if err != nil {
		t.Fatal(err)
	}
	p.Device, p.Concurrency = dev, 1
	budget := ds.TotalBytes() / 5

	refresh := func(plan *core.Plan) *core.Plan {
		t.Helper()
		if _, err := p.Run(ctx, plan, RunEnv{Mem: memcat.New(budget)}); err != nil {
			t.Fatal(err)
		}
		_, next, _, err := p.Plan(ctx, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	topo, err := p.Graph.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	plan := refresh(core.NewPlan(topo)) // nothing flagged: every node observes its blocking write
	ss := p.Graph.Lookup("ss_1999")
	if !plan.Flagged[ss] || plan.FormOf(ss) != core.Serialized {
		t.Fatalf("ss_1999 planned flagged=%v as %v; the shape under test keeps it serialized", plan.Flagged[ss], plan.FormOf(ss))
	}
	for i := 0; i < 3; i++ {
		next := refresh(plan)
		if !reflect.DeepEqual(next, plan) {
			t.Fatalf("refresh %d moved the plan:\n from %+v\n   to %+v", i+1, plan, next)
		}
	}
}

// TestProblemOffersSerializedFormOnSerialRowPath: the second residency form
// is offered only where its feasibility proof is exact and it is a smaller
// form — one token, no encoding — and there at each node's latest observed
// serialized size, or its size as rows while none has been observed.
func TestProblemOffersSerializedFormOnSerialRowPath(t *testing.T) {
	for _, tc := range []struct {
		enc         bool
		concurrency int
		offered     bool
	}{
		{false, 0, true}, {false, 1, true}, {false, 2, false}, {true, 1, false}, {true, 2, false},
	} {
		p := pinnedPipeline(t, tc.enc)
		p.Concurrency = tc.concurrency
		pr := p.Problem(8 << 20)
		if (pr.SerializedSizes != nil) != tc.offered {
			t.Errorf("encoding=%v concurrency=%d: serialized sizes %v", tc.enc, tc.concurrency, pr.SerializedSizes)
		}
		if !tc.offered {
			continue
		}
		for i, n := range p.Workload.Nodes {
			want := pr.Sizes[i]
			if o, ok := p.Metrics.Latest(n.Name); ok && o.EncodedBytes > 0 {
				want = o.EncodedBytes
			}
			if pr.SerializedSizes[i] != want {
				t.Errorf("%s: serialized size %d, want %d", n.Name, pr.SerializedSizes[i], want)
			}
		}
		if err := pr.Validate(); err != nil {
			t.Error(err)
		}
	}
}
