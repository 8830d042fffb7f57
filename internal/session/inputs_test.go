package session

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/introspect"
	"github.com/shortcircuit-db/sc/internal/metrics"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

// history mirrors what a metrics.Store learns from the same observations —
// each node's latest one, its encoded/raw EWMA and the workload-wide EWMA —
// so the reads below can derive the plan's inputs the way the store's
// per-quantity methods (Sizes, Seconds, EncodedSizes, PredictEncoded) did
// before they became one Nodes read.
type history struct {
	latest map[string]metrics.Observation
	ratios map[string]*metrics.EWMA
	global metrics.EWMA
}

func (h *history) record(o metrics.Observation) {
	h.latest[o.Name] = o
	if o.OutputBytes <= 0 || o.EncodedBytes <= 0 {
		return
	}
	r := float64(o.EncodedBytes) / float64(o.OutputBytes)
	if h.ratios[o.Name] == nil {
		h.ratios[o.Name] = &metrics.EWMA{}
	}
	h.ratios[o.Name].Observe(r)
	h.global.Observe(r)
}

func (h *history) ratio(name string) (float64, bool) {
	if w := h.ratios[name]; w != nil {
		return w.Mean, true
	}
	return h.global.Mean, h.global.N > 0
}

func (h *history) predictEncoded(name string, raw int64) int64 {
	r, ok := h.ratio(name)
	if !ok {
		return raw
	}
	return scaleBytes(raw, r)
}

func (h *history) sizes(g *dag.Graph, fallback int64) []int64 {
	out := make([]int64, g.Len())
	for i := range out {
		if o, ok := h.latest[g.Name(dag.NodeID(i))]; ok {
			out[i] = o.OutputBytes
		} else {
			out[i] = fallback
		}
	}
	return out
}

func (h *history) seconds(g *dag.Graph) []float64 {
	out := make([]float64, g.Len())
	for i := range out {
		if o, ok := h.latest[g.Name(dag.NodeID(i))]; ok {
			out[i] = (o.ReadTime + o.ComputeTime + o.WriteTime).Seconds()
		}
	}
	return out
}

func (h *history) encodedSizes(g *dag.Graph, fallback int64) []int64 {
	out := make([]int64, g.Len())
	for i := range out {
		name := g.Name(dag.NodeID(i))
		o, ok := h.latest[name]
		switch {
		case ok && o.EncodedBytes > 0:
			out[i] = o.EncodedBytes
		case ok:
			out[i] = o.OutputBytes
			if w := h.ratios[name]; w != nil {
				out[i] = scaleBytes(o.OutputBytes, w.Mean)
			}
		default:
			out[i] = h.predictEncoded(name, fallback)
		}
	}
	return out
}

func scaleBytes(n int64, r float64) int64 {
	e := int64(float64(n) * r)
	if e < 1 && n > 0 {
		e = 1
	}
	return e
}

// problem is Pipeline.Problem as it read the store one quantity at a time.
func (h *history) problem(p *Pipeline, memory int64) *Priced {
	raw := h.sizes(p.Graph, SizeGuess)
	disk := raw
	if p.Encoding != nil {
		disk = h.encodedSizes(p.Graph, SizeGuess)
	}
	pr := &Priced{
		Problem: &core.Problem{G: p.Graph, Sizes: disk, Scores: make([]float64, len(raw)), Memory: memory},
		Pricing: make([]introspect.NodePricing, len(raw)),
	}
	if p.Encoding == nil && p.Concurrency <= 1 {
		pr.SerializedSizes = append([]int64(nil), raw...)
	}
	for i := range raw {
		name := p.Graph.Name(dag.NodeID(i))
		read, write := costmodel.ScoreParts(p.Device, p.Graph, raw, disk, dag.NodeID(i))
		o, observed := h.latest[name]
		if observed && o.WriteTime > 0 {
			write = o.WriteTime
		}
		if observed && o.EncodedBytes > 0 && pr.SerializedSizes != nil {
			pr.SerializedSizes[i] = o.EncodedBytes
		}
		pr.Scores[i] = costmodel.Score(read, write)
		pr.Pricing[i] = introspect.NodePricing{RawBytes: raw[i], ReadSaveSeconds: read.Seconds(), WriteSaveSeconds: write.Seconds()}
		if p.Encoding != nil {
			pr.Pricing[i].PredictedBytes = h.predictEncoded(name, raw[i])
		}
	}
	return pr
}

// TestPlanInputsMatchPerQuantityReads: over random observation histories —
// nodes never observed, observed without encoded bytes, or with varying
// raw and encoded sizes and read, compute and write times — on the row and
// the compressed path at one and two tokens, the knapsack Problem prices
// and the dispatch rank the controller starts nodes by equal what the
// store's per-quantity reads derived from the same learned values.
func TestPlanInputsMatchPerQuantityReads(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 200; trial++ {
		p, err := NewPipeline("prop", tpcds.RealWorkload().Nodes, storage.NewMemStore())
		if err != nil {
			t.Fatal(err)
		}
		p.Device = costmodel.PaperProfile()
		if rng.Intn(2) == 0 {
			p.Encoding = &encoding.Options{}
		}
		p.Concurrency = 1 + rng.Intn(2)
		h := &history{latest: make(map[string]metrics.Observation), ratios: make(map[string]*metrics.EWMA)}
		never := rng.Intn(p.Graph.Len() + 1) // nodes from here on are never observed
		for round, rounds := 0, rng.Intn(5); round < rounds; round++ {
			for i := 0; i < never; i++ {
				if rng.Intn(4) == 0 {
					continue // this node skipped this run
				}
				o := metrics.Observation{
					Name:        p.Graph.Name(dag.NodeID(i)),
					OutputBytes: rng.Int63n(64 << 20),
					ReadTime:    time.Duration(rng.Int63n(int64(time.Second))),
					ComputeTime: time.Duration(rng.Int63n(int64(time.Second))),
				}
				if rng.Intn(3) > 0 {
					o.EncodedBytes = 1 + rng.Int63n(o.OutputBytes/2+1)
				}
				if rng.Intn(2) == 0 {
					o.WriteTime = time.Duration(rng.Int63n(int64(time.Second)))
				}
				p.Metrics.Record(o)
				h.record(o)
			}
		}
		memory := rng.Int63n(256 << 20)
		got, want := p.Problem(memory), h.problem(p, memory)
		if !reflect.DeepEqual(got.Sizes, want.Sizes) || !reflect.DeepEqual(got.Scores, want.Scores) ||
			!reflect.DeepEqual(got.SerializedSizes, want.SerializedSizes) || !reflect.DeepEqual(got.Pricing, want.Pricing) {
			t.Fatalf("trial %d (encoding %v, %d tokens): Problem\n sizes %v scores %v serialized %v pricing %+v\nwant\n sizes %v scores %v serialized %v pricing %+v",
				trial, p.Encoding != nil, p.Concurrency,
				got.Sizes, got.Scores, got.SerializedSizes, got.Pricing,
				want.Sizes, want.Scores, want.SerializedSizes, want.Pricing)
		}
		secs := h.seconds(p.Graph)
		for i, n := range p.Metrics.Nodes(p.Graph, SizeGuess) {
			if n.Latest.Seconds() != secs[i] {
				t.Fatalf("trial %d: node %d dispatch seconds %v, want %v", trial, i, n.Latest.Seconds(), secs[i])
			}
		}
		order, err := p.Graph.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		plan := core.NewPlan(order)
		if rank, want := p.controller(RunEnv{}, plan).Rank, core.DispatchRank(p.Graph, order, secs); !reflect.DeepEqual(rank, want) {
			t.Fatalf("trial %d: dispatch rank %v, want %v", trial, rank, want)
		}
	}
}
