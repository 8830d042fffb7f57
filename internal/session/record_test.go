package session

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/telemetry"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

// recordCase is one run of the TPC-DS-like pipeline whose ledger row is
// built both ways.
type recordCase struct {
	encoding    bool
	tokens      int
	budgetFrac  float64 // plan budget as a fraction of the observed output bytes
	squeeze     bool    // run under a quarter of the plan budget: flagged outputs fall back
	fail        bool    // one node fails at plan time
	cancelAfter int     // cancel the run after this many completed nodes (0: never)
}

func (c recordCase) String() string {
	return fmt.Sprintf("enc=%v/tokens=%d/frac=%.2f/squeeze=%v/fail=%v/cancel=%d",
		c.encoding, c.tokens, c.budgetFrac, c.squeeze, c.fail, c.cancelAfter)
}

// TestRecordRowMatchesSpanRow runs seeded random refreshes and builds each
// one's ledger row twice: from the run record (ledger.FromRun) and from the
// run's trace (spanSummary, the span and span-event walk the ledger used
// before the record carried these numbers). The rows must agree field for
// field, times and the trace ID aside, with two known differences: the
// record's run-level encoded bytes sum every node's, where the span walk
// summed only compressed outputs' EncodeDone events; and on a failed or
// canceled run the trace keeps a span for each node that did not complete,
// which the record does not list.
func TestRecordRowMatchesSpanRow(t *testing.T) {
	ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []recordCase{
		{tokens: 1, budgetFrac: 0.5},
		{encoding: true, tokens: 1, budgetFrac: 0.5},
		{tokens: 2, budgetFrac: 0.5},
		{encoding: true, tokens: 2, budgetFrac: 0.5},
		{tokens: 1, budgetFrac: 1, squeeze: true},
		{encoding: true, tokens: 2, budgetFrac: 1, squeeze: true},
		{tokens: 2, budgetFrac: 0.5, fail: true},
		{encoding: true, tokens: 1, budgetFrac: 0.5, fail: true},
		{tokens: 1, budgetFrac: 0.5, cancelAfter: 4},
		{encoding: true, tokens: 2, budgetFrac: 0.5, cancelAfter: 5},
	}
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 6; i++ {
		c := recordCase{encoding: rng.Intn(2) == 1, tokens: 1 + rng.Intn(2), budgetFrac: 0.1 + 0.9*rng.Float64(), squeeze: rng.Intn(3) == 0}
		switch rng.Intn(4) {
		case 0:
			c.fail = true
		case 1:
			c.cancelAfter = 1 + rng.Intn(8)
		}
		cases = append(cases, c)
	}
	sawFallbacks := false
	for _, c := range cases {
		t.Run(c.String(), func(t *testing.T) {
			got, want, res := recordAndSpanRows(t, ds.Tables, c)
			sawFallbacks = sawFallbacks || res.FallbackWrites > 0
			if c.squeeze && res.FallbackWrites == 0 {
				t.Errorf("a squeezed run fell back on no write")
			}

			var encoded int64
			for _, n := range got.Nodes {
				encoded += n.EncodedBytes
			}
			if got.EncodedBytes != encoded || encoded == 0 {
				t.Errorf("run encoded_bytes %d, nodes sum to %d", got.EncodedBytes, encoded)
			}
			want.EncodedBytes = got.EncodedBytes

			// Drop the span rows of the nodes that did not complete.
			recorded := make(map[string]bool, len(res.Nodes))
			for _, n := range res.Nodes {
				recorded[n.Name] = true
			}
			kept := want.Nodes[:0]
			for _, n := range want.Nodes {
				if recorded[n.Node] {
					kept = append(kept, n)
					continue
				}
				if c.fail || c.cancelAfter > 0 {
					want.OutputBytes -= n.OutputBytes
					want.KernelFallbacks -= n.KernelFallbacks
					continue
				}
				t.Errorf("span row of node %s, which the record does not list", n.Node)
			}
			partial := len(kept) < len(want.Nodes)
			want.Nodes = kept
			if partial {
				// The chain may run through a node that did not complete.
				want.CritPath, got.CritPath = nil, nil
				for i := range want.Nodes {
					want.Nodes[i].Critical = false
				}
				for i := range got.Nodes {
					got.Nodes[i].Critical = false
				}
			}

			if g, w := rowJSON(t, got), rowJSON(t, want); g != w {
				t.Errorf("record row\n%s\nspan row\n%s", g, w)
			}
		})
	}
	if !sawFallbacks {
		t.Errorf("no case fell back on a write")
	}
}

// recordAndSpanRows plays one traced run and returns its ledger row built
// from the record and from the spans, and the record itself.
func recordAndSpanRows(t *testing.T, tables map[string]*table.Table, c recordCase) (got, want ledger.RunSummary, res *exec.RunResult) {
	t.Helper()
	ctx := context.Background()
	store := storage.NewMemStore()
	for name, tb := range tables {
		save := exec.SaveTable(store, name, tb)
		if c.encoding {
			save = exec.SaveTableChunked(store, name, tb, encoding.Options{})
		}
		if save != nil {
			t.Fatal(save)
		}
	}
	nodes := append([]exec.NodeSpec(nil), tpcds.RealWorkload().Nodes...)
	if c.fail {
		nodes[5].SQL = `SELECT missing_col FROM ` + nodes[1].Name
	}
	p, err := NewPipeline("p", nodes, store)
	if err != nil {
		t.Fatal(err)
	}
	if c.encoding {
		p.Encoding = &encoding.Options{}
	}
	p.Concurrency = c.tokens

	// A first, untraced run observes every node's size, so the plan
	// flags by real sizes.
	topo, err := p.Graph.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := p.Run(ctx, &core.Plan{Order: topo, Flagged: make([]bool, p.Graph.Len())}, RunEnv{Mem: memcat.New(0)})
	var total int64
	for _, n := range warm.Nodes {
		total += n.CatalogBytes + n.EncodedSize
	}
	budget := int64(c.budgetFrac * float64(total))
	_, plan, _, err := p.Plan(ctx, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.squeeze {
		budget /= 4
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var watcher obs.Observer
	if c.cancelAfter > 0 {
		var done atomic.Int64
		watcher = obs.Func(func(e obs.Event) {
			if e.Kind == obs.NodeDone && e.Err == nil && done.Add(1) == int64(c.cancelAfter) {
				cancel()
			}
		})
	}
	col := p.OpenTrace("run-1", time.Time{}, telemetry.SpanContext{})
	res, runErr := p.Run(runCtx, plan, RunEnv{Mem: memcat.New(budget), RunID: "run-1", Trace: col, Observer: watcher})
	meta := ledger.Meta{RunID: "run-1", Pipeline: p.Name, Outcome: ledger.OutcomeSucceeded, ReservedBytes: budget}
	switch {
	case runErr == nil && (c.fail || c.cancelAfter > 0):
		t.Fatalf("run did not stop: %+v", c)
	case runErr != nil && c.cancelAfter > 0:
		meta.Outcome, meta.Err = ledger.OutcomeCanceled, runErr.Error()
	case runErr != nil && c.fail:
		meta.Outcome, meta.Err = ledger.OutcomeFailed, runErr.Error()
	case runErr != nil:
		t.Fatal(runErr)
	}
	col.Finish(time.Time{}, meta.Err)
	spans := col.Spans()
	meta.Start = spans[0].Start

	got = ledger.FromRun(res, p.Parents, meta)
	want = spanSummary(spans, p.Parents, meta, res.PeakMemory, res.FallbackWrites)
	return got, want, res
}

// spanSummary is the ledger row as the span walk built it before the run
// record carried these numbers: per-node times and bytes from the node
// spans, run totals from the span events, the critical path from the spans.
// It is the reference FromRun is checked against.
func spanSummary(spans []telemetry.Span, parents map[string][]string, meta ledger.Meta, peak int64, fallbacks int) ledger.RunSummary {
	s := ledger.RunSummary{
		RunID: meta.RunID, Pipeline: meta.Pipeline, Tenant: meta.Tenant,
		Outcome: meta.Outcome, Start: meta.Start,
		WallSeconds: meta.WallSeconds, QueueWaitSeconds: meta.QueueWaitSeconds,
		ReservedBytes: meta.ReservedBytes, ActualPeakBytes: peak,
		FallbackWrites: fallbacks,
		EventsDropped:  meta.EventsDropped, Error: meta.Err,
	}
	if s.ReservedBytes > 0 {
		s.Mispredict = math.Abs(float64(s.ReservedBytes-s.ActualPeakBytes)) / float64(s.ReservedBytes)
	}
	root := spans[0]
	s.TraceID = root.TraceID.String()
	cp := telemetry.CriticalPath(spans, parents)
	s.CritPath = cp.Chain
	s.CritPathSeconds = cp.ChainSeconds
	waits := make(map[string]float64, len(cp.Nodes))
	critical := make(map[string]bool, len(cp.Nodes))
	for _, n := range cp.Nodes {
		waits[n.Node] = n.WaitSeconds
		critical[n.Node] = n.Critical
	}
	eventInt := func(ev telemetry.SpanEvent, key string) int64 {
		for _, a := range ev.Attrs {
			if a.Key == key && a.Type == telemetry.AttrInt {
				return a.Int
			}
		}
		return 0
	}
	countEvents := func(evs []telemetry.SpanEvent, ns *ledger.NodeSummary) {
		for _, ev := range evs {
			switch ev.Name {
			case obs.EncodeDone.String():
				s.EncodedBytes += eventInt(ev, telemetry.AttrEncodedBytes)
				if ns != nil {
					for _, a := range ev.Attrs {
						if a.Key == "sc.ratio" && a.Type == telemetry.AttrFloat && a.Flt > 0 {
							ns.Ratio = a.Flt
						}
					}
				}
			case obs.DecodeDone.String():
				s.DecodedBytes += eventInt(ev, "sc.bytes")
			case obs.Materialized.String():
				s.MaterializedBytes += eventInt(ev, "sc.bytes")
			case obs.Evicted.String():
				s.Evictions++
			case obs.KernelDone.String():
				if ns != nil {
					ns.KernelFallbacks += eventInt(ev, "sc.kernel.fallbacks")
				}
			}
		}
	}
	countEvents(root.Events, nil)
	var starts []time.Time
	for _, sp := range spans[1:] {
		node := sp.StrAttr(telemetry.AttrNode)
		if node == "" {
			countEvents(sp.Events, nil)
			continue
		}
		ns := ledger.NodeSummary{
			Node:        node,
			WallSeconds: sp.Duration().Seconds(),
			SelfSeconds: sp.Duration().Seconds(),
			WaitSeconds: waits[node],
			Critical:    critical[node],
		}
		if a, ok := sp.Attr(telemetry.AttrOutputBytes); ok {
			ns.OutputBytes = a.Int
		}
		if a, ok := sp.Attr(telemetry.AttrEncodedBytes); ok {
			ns.EncodedBytes = a.Int
		}
		if a, ok := sp.Attr(telemetry.AttrFlagged); ok {
			ns.Flagged = a.Bool
		}
		countEvents(sp.Events, &ns)
		if ns.Ratio == 0 && ns.EncodedBytes > 0 && ns.OutputBytes > 0 {
			ns.Ratio = float64(ns.OutputBytes) / float64(ns.EncodedBytes)
		}
		s.OutputBytes += ns.OutputBytes
		s.KernelFallbacks += ns.KernelFallbacks
		s.Nodes = append(s.Nodes, ns)
		starts = append(starts, sp.Start)
	}
	order := make([]int, len(s.Nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if !starts[a].Equal(starts[b]) {
			return starts[a].Before(starts[b])
		}
		return s.Nodes[a].Node < s.Nodes[b].Node
	})
	nodes := make([]ledger.NodeSummary, len(order))
	for i, k := range order {
		nodes[i] = s.Nodes[k]
	}
	s.Nodes = nodes
	return s
}

// rowJSON renders a row without its times and trace ID.
func rowJSON(t *testing.T, s ledger.RunSummary) string {
	t.Helper()
	s.TraceID, s.Start = "", time.Time{}
	s.WallSeconds, s.QueueWaitSeconds, s.CritPathSeconds = 0, 0, 0
	s.Nodes = append([]ledger.NodeSummary(nil), s.Nodes...)
	for i := range s.Nodes {
		s.Nodes[i].WallSeconds, s.Nodes[i].SelfSeconds, s.Nodes[i].WaitSeconds = 0, 0, 0
	}
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
