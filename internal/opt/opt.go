// Package opt implements the alternating optimization of §V-C
// (Algorithm 2): starting from a deterministic Kahn order and an empty
// flagged set, alternately (1) solve S/C Opt Nodes for the current order
// and (2) solve S/C Opt Order for the current flagged set, until the flagged
// set's total speedup score stops improving, the new order becomes
// infeasible, or maxIterations iterations have run.
//
// Where the problem offers a second residency form (core.Problem's
// SerializedSizes), the settled plan then gets one more pass: every node
// the loop left unflagged is offered the Memory Catalog again at the size of
// its serialized bytes (promoteSerialized). The loop itself never sees that
// form, so a problem without it is solved exactly as the paper does.
package opt

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/flagsel"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/order"
)

// Options configures the alternating optimization. Every refresh path
// (session.Pipeline.Plan) and sc.Solve set only Observer, so they run the
// paper's algorithms; the strategy fields are for the paper's baselines
// (internal/bench, cmd/scopt).
type Options struct {
	// Selector solves S/C Opt Nodes; nil means the paper's SimplifiedMKP.
	// The baselines are flagsel.Greedy, Random and Ratio.
	Selector flagsel.Selector
	// Orderer solves S/C Opt Order; nil means the paper's MA-DFS. The
	// baselines are order.DFS, Kahn, SA and Separator.
	Orderer order.Orderer
	// Observer receives an IterationDone event after each alternating
	// iteration. Nil disables observation.
	Observer obs.Observer
}

// maxIterations caps the loop; the paper reports convergence in <10
// iterations for 100-node graphs.
const maxIterations = 50

// Stats reports how the optimization converged.
type Stats struct {
	Iterations int           // alternating iterations performed
	Score      float64       // total speedup score of the returned plan
	PeakMemory int64         // peak Memory Catalog usage of the plan
	Elapsed    time.Duration // optimizer wall-clock time
	StopReason string        // why the loop terminated
}

// Solve runs Algorithm 2 on the problem and returns a feasible plan. The
// context is checked between alternating iterations, so a cancelled or
// expired context stops the optimization with ctx.Err().
func Solve(ctx context.Context, p *core.Problem, opts Options) (*core.Plan, *Stats, error) {
	return solve(ctx, p, opts, maxIterations)
}

// solve is Solve with the loop capped at maxIter iterations.
func solve(ctx context.Context, p *core.Problem, opts Options, maxIter int) (*core.Plan, *Stats, error) {
	start := time.Now()
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	sel := opts.Selector
	if sel == nil {
		sel = flagsel.MKP{}
	}
	ord := opts.Orderer
	if ord == nil {
		ord = order.MADFS{}
	}
	// GetTopologicalOrder in Algorithm 2: a deterministic Kahn sort.
	tau, err := p.G.TopoSort()
	if err != nil {
		return nil, nil, err
	}

	best := core.NewPlan(tau) // U = ∅
	st := &Stats{}
	iterDone := func() {
		obs.Emit(opts.Observer, obs.Event{
			Kind:      obs.IterationDone,
			Step:      -1,
			Iteration: st.Iterations,
			Score:     best.TotalScore(p),
			Bytes:     best.TotalFlaggedSize(p),
			Elapsed:   time.Since(start),
		})
	}
	for it := 1; it <= maxIter; it++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		st.Iterations = it
		cand, err := sel.Select(p, tau)
		if err != nil {
			return nil, nil, err
		}
		if !core.Feasible(p, cand) {
			// Selectors guarantee feasibility; treat violation as a bug.
			return nil, nil, fmt.Errorf("opt: selector %s produced infeasible plan", sel.Name())
		}
		// Line 5 compares scores: the flagged set must save strictly more.
		if cand.TotalScore(p) <= best.TotalScore(p) {
			st.StopReason = "no flagged-set improvement"
			iterDone()
			break
		}
		best = cand

		tauNew, err := ord.Order(p, best.Flagged)
		if err != nil {
			return nil, nil, err
		}
		if !p.G.IsTopological(tauNew) {
			return nil, nil, fmt.Errorf("opt: orderer %s produced non-topological order", ord.Name())
		}
		probe := &core.Plan{Order: tauNew, Flagged: best.Flagged}
		if core.PeakMemoryUsage(p, probe) > p.Memory {
			// Line 8: the new order breaks feasibility of U; keep the
			// previous order and stop.
			st.StopReason = "orderer produced infeasible order"
			iterDone()
			break
		}
		tau = tauNew
		best = probe
		iterDone()
	}
	if st.StopReason == "" {
		st.StopReason = "iteration limit"
	}
	best = promoteSerialized(p, best)
	st.Score = best.TotalScore(p)
	st.PeakMemory = core.PeakMemoryUsage(p, best)
	st.Elapsed = time.Since(start)
	return best, st, nil
}

// promoteSerialized gives every node pl leaves unflagged, and whose
// serialized form is the smaller one, a second chance at that size: best
// score first, earlier in the plan on a tie, each kept only if the plan still
// fits the Memory Catalog with it. Flagging it saves what flagging it as rows
// would — its write leaves the critical path and its children skip the
// device — since the decode its children pay they pay after a storage read
// too. The order and the nodes already flagged are left as the loop settled
// them; pl itself is returned when nothing is promoted.
func promoteSerialized(p *core.Problem, pl *core.Plan) *core.Plan {
	var cands []dag.NodeID
	for i := range p.SerializedSizes {
		if !pl.Flagged[i] && p.Scores[i] > 0 && p.SerializedSizes[i] < p.Sizes[i] {
			cands = append(cands, dag.NodeID(i))
		}
	}
	if len(cands) == 0 {
		return pl
	}
	pos := core.Positions(pl.Order)
	sort.Slice(cands, func(a, b int) bool {
		if sa, sb := p.Scores[cands[a]], p.Scores[cands[b]]; sa != sb {
			return sa > sb
		}
		return pos[cands[a]] < pos[cands[b]]
	})
	out := pl.Clone()
	out.Forms = make([]core.Form, len(pl.Flagged))
	promoted := false
	for _, id := range cands {
		out.Flagged[id], out.Forms[id] = true, core.Serialized
		if core.Feasible(p, out) {
			promoted = true
		} else {
			out.Flagged[id], out.Forms[id] = false, core.Rows
		}
	}
	if !promoted {
		return pl
	}
	return out
}
