// Package knapsack provides an exact solver for the 0/1 multidimensional
// knapsack problem (MKP), the optimization core of S/C Opt Nodes (§V-A of
// the paper). The paper uses the branch-and-bound solver from Google
// OR-Tools; this package implements the equivalent from scratch:
//
//   - branch-and-bound with per-constraint fractional (Dantzig) upper bounds,
//   - a greedy primal heuristic to seed the incumbent,
//   - a dynamic-programming fast path for single-constraint instances.
//
// Profits and weights are non-negative integers (the paper rounds speedup
// scores to the nearest integer before solving).
package knapsack

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Problem is a 0/1 multidimensional knapsack instance:
//
//	maximize   Σ_j Profits[j]·x_j
//	subject to Σ_j Weights[i][j]·x_j ≤ Capacities[i]  for every constraint i,
//	           x_j ∈ {0,1}.
type Problem struct {
	Profits    []int64   // one per item, ≥ 0
	Weights    [][]int64 // Weights[i][j]: weight of item j in constraint i, ≥ 0
	Capacities []int64   // one per constraint, ≥ 0
}

// Solution is the result of solving a Problem.
type Solution struct {
	Take    []bool // Take[j] reports whether item j is selected
	Profit  int64  // total profit of the selection
	Optimal bool   // true when the search proved optimality
	Nodes   int64  // branch-and-bound nodes explored (diagnostics)
}

// MaxBnBNodes bounds the search effort. Most instances at the paper's
// sizes (≤100 items after simplification) solve to optimality in well
// under the budget; pathological instances return the best incumbent with
// Optimal=false, which is still feasible and at least as good as greedy.
const MaxBnBNodes = int64(60_000)

// Validate checks structural consistency of the instance.
func (p *Problem) Validate() error {
	n := len(p.Profits)
	if len(p.Weights) != len(p.Capacities) {
		return fmt.Errorf("knapsack: %d weight rows but %d capacities", len(p.Weights), len(p.Capacities))
	}
	for i, row := range p.Weights {
		if len(row) != n {
			return fmt.Errorf("knapsack: constraint %d has %d weights, want %d", i, len(row), n)
		}
		for j, w := range row {
			if w < 0 {
				return fmt.Errorf("knapsack: negative weight at [%d][%d]", i, j)
			}
		}
	}
	for j, pr := range p.Profits {
		if pr < 0 {
			return fmt.Errorf("knapsack: negative profit at %d", j)
		}
	}
	for i, c := range p.Capacities {
		if c < 0 {
			return fmt.Errorf("knapsack: negative capacity at %d", i)
		}
	}
	return nil
}

// ErrInvalid wraps validation failures from Solve.
var ErrInvalid = errors.New("knapsack: invalid problem")

// Solve finds an optimal selection. It is exact unless the node budget is
// exhausted (Solution.Optimal reports which).
func Solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	n := len(p.Profits)
	if n == 0 {
		return &Solution{Take: nil, Profit: 0, Optimal: true}, nil
	}
	feasible := feasibleItems(p)
	if len(p.Capacities) == 1 {
		return solveDP(p, feasible)
	}
	return solveBnB(p, feasible)
}

// feasibleItems reports, per item, whether it fits every constraint alone:
// an item that does not can never be taken.
func feasibleItems(p *Problem) []bool {
	feasible := make([]bool, len(p.Profits))
	for j := range feasible {
		feasible[j] = true
		for i := range p.Capacities {
			if p.Weights[i][j] > p.Capacities[i] {
				feasible[j] = false
				break
			}
		}
	}
	return feasible
}

// dpCapLimit bounds the DP table size for the single-constraint fast path;
// larger capacities fall back to branch-and-bound.
const dpCapLimit = 4 << 20

// solveDP solves single-constraint instances by classic O(n·C) DP.
func solveDP(p *Problem, feasible []bool) (*Solution, error) {
	cap64 := p.Capacities[0]
	if cap64 > dpCapLimit {
		return solveBnB(p, feasible)
	}
	c := int(cap64)
	n := len(p.Profits)
	best := make([]int64, c+1)
	// choice[j*(c+1)+w] records whether item j is taken at capacity w.
	choice := make([]bool, n*(c+1))
	for j := 0; j < n; j++ {
		if !feasible[j] {
			continue
		}
		w := int(p.Weights[0][j])
		pr := p.Profits[j]
		for cw := c; cw >= w; cw-- {
			if best[cw-w]+pr > best[cw] {
				best[cw] = best[cw-w] + pr
				choice[j*(c+1)+cw] = true
			}
		}
	}
	sol := &Solution{Take: make([]bool, n), Profit: best[c], Optimal: true}
	// Reconstruct.
	w := c
	for j := n - 1; j >= 0; j-- {
		if feasible[j] && choice[j*(c+1)+w] {
			sol.Take[j] = true
			w -= int(p.Weights[0][j])
		}
	}
	return sol, nil
}

// itemOrder sorts items by decreasing profit density. Density uses the sum
// of normalized weights across constraints, a standard surrogate.
func itemOrder(p *Problem, feasible []bool) []int {
	n := len(p.Profits)
	density := make([]float64, n)
	for j := 0; j < n; j++ {
		var wsum float64
		for i := range p.Capacities {
			capI := float64(p.Capacities[i])
			if capI <= 0 {
				capI = 1
			}
			wsum += float64(p.Weights[i][j]) / capI
		}
		if wsum <= 0 {
			density[j] = math.Inf(1) // free item: always worth taking first
		} else {
			density[j] = float64(p.Profits[j]) / wsum
		}
	}
	idx := make([]int, 0, n)
	for j := 0; j < n; j++ {
		if feasible[j] {
			idx = append(idx, j)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		if density[idx[a]] != density[idx[b]] {
			return density[idx[a]] > density[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

type bnbState struct {
	p        *Problem
	order    []int // items in density order
	take     []bool
	bestTake []bool
	best     int64
	nodes    int64
	remain   []int64 // remaining capacity per constraint
	// suffixProfit[k] = Σ profits of order[k:]; cheap admissible bound.
	suffixProfit []int64
	// bounds are the constraints used for fractional bounding, each with
	// its undecided items.
	bounds []boundList
}

// boundList holds one bounding constraint's undecided items sorted by
// Profits[j]/Weights[con][j] descending (zero weight sorts first), as the
// Dantzig bound walks them: a doubly linked list over item indices whose
// sentinel is len(Profits). The search unlinks an item while it is decided
// and links it back after, so a bound never walks a decided item.
type boundList struct {
	con        int
	next, prev []int
}

func newBoundList(p *Problem, con int, order []int) boundList {
	co := append([]int(nil), order...)
	sort.SliceStable(co, func(a, b int) bool {
		return constraintDensityLess(p, con, co[b], co[a])
	})
	n := len(p.Profits)
	l := boundList{con: con, next: make([]int, n+1), prev: make([]int, n+1)}
	last := n
	for _, j := range co {
		l.next[last], l.prev[j] = j, last
		last = j
	}
	l.next[last], l.prev[n] = n, last
	return l
}

func (l *boundList) unlink(j int) { l.next[l.prev[j]], l.prev[l.next[j]] = l.next[j], l.prev[j] }
func (l *boundList) relink(j int) { l.next[l.prev[j]], l.prev[l.next[j]] = j, j }

// maxBoundConstraints caps per-node bound work; see newBnB.
const maxBoundConstraints = 6

// solveBnB runs depth-first branch-and-bound over the density ordering.
func solveBnB(p *Problem, feasible []bool) (*Solution, error) {
	st := newBnB(p, feasible)
	st.dfs(0, 0)
	optimal := st.nodes < MaxBnBNodes
	return &Solution{Take: st.bestTake, Profit: st.best, Optimal: optimal, Nodes: st.nodes}, nil
}

// newBnB sets up the search: the density order, the bounding constraints'
// lists, and the greedy incumbent.
func newBnB(p *Problem, feasible []bool) *bnbState {
	st := &bnbState{
		p:     p,
		order: itemOrder(p, feasible),
		take:  make([]bool, len(p.Profits)),
	}
	st.remain = append([]int64(nil), p.Capacities...)
	st.suffixProfit = make([]int64, len(st.order)+1)
	for k := len(st.order) - 1; k >= 0; k-- {
		st.suffixProfit[k] = st.suffixProfit[k+1] + p.Profits[st.order[k]]
	}
	// Bounding on every constraint is O(m·n) per node; the minimum over a
	// subset of valid upper bounds is still valid, so bound only on the
	// tightest constraints (smallest capacity-to-demand ratio).
	tightness := make([]float64, len(p.Capacities))
	for i := range p.Capacities {
		var demand int64
		for _, j := range st.order {
			demand += p.Weights[i][j]
		}
		if demand == 0 {
			tightness[i] = math.Inf(1)
		} else {
			tightness[i] = float64(p.Capacities[i]) / float64(demand)
		}
	}
	cons := make([]int, len(p.Capacities))
	for i := range cons {
		cons[i] = i
	}
	sort.Slice(cons, func(a, b int) bool { return tightness[cons[a]] < tightness[cons[b]] })
	if len(cons) > maxBoundConstraints {
		cons = cons[:maxBoundConstraints]
	}
	for _, i := range cons {
		st.bounds = append(st.bounds, newBoundList(p, i, st.order))
	}
	// Seed incumbent with the greedy solution so pruning bites early.
	st.best, st.bestTake = greedySeed(p, st.order)
	return st
}

// constraintDensityLess reports whether item a has strictly lower
// profit/weight density than item b under constraint i. Zero-weight items
// have infinite density.
func constraintDensityLess(p *Problem, i, a, b int) bool {
	wa, wb := p.Weights[i][a], p.Weights[i][b]
	pa, pb := p.Profits[a], p.Profits[b]
	if wa == 0 && wb == 0 {
		return pa < pb
	}
	if wa == 0 {
		return false
	}
	if wb == 0 {
		return true
	}
	// pa/wa < pb/wb  <=>  pa*wb < pb*wa (all non-negative).
	return pa*wb < pb*wa
}

// greedySeed takes items in density order when they fit.
func greedySeed(p *Problem, order []int) (int64, []bool) {
	remain := append([]int64(nil), p.Capacities...)
	take := make([]bool, len(p.Profits))
	var profit int64
	for _, j := range order {
		fits := true
		for i := range remain {
			if p.Weights[i][j] > remain[i] {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		for i := range remain {
			remain[i] -= p.Weights[i][j]
		}
		take[j] = true
		profit += p.Profits[j]
	}
	return profit, take
}

func (st *bnbState) dfs(k int, profit int64) {
	st.nodes++
	if st.nodes >= MaxBnBNodes {
		return
	}
	if profit > st.best {
		st.best = profit
		st.bestTake = append(st.bestTake[:0:0], st.take...)
	}
	if k == len(st.order) {
		return
	}
	if ub := profit + st.upperBound(k); ub <= st.best {
		return
	}
	j := st.order[k]
	for i := range st.bounds {
		st.bounds[i].unlink(j)
	}
	// Branch 1: take item j if it fits.
	fits := true
	for i := range st.remain {
		if st.p.Weights[i][j] > st.remain[i] {
			fits = false
			break
		}
	}
	if fits {
		for i := range st.remain {
			st.remain[i] -= st.p.Weights[i][j]
		}
		st.take[j] = true
		st.dfs(k+1, profit+st.p.Profits[j])
		st.take[j] = false
		for i := range st.remain {
			st.remain[i] += st.p.Weights[i][j]
		}
	}
	// Branch 2: skip item j.
	st.dfs(k+1, profit)
	for i := range st.bounds {
		st.bounds[i].relink(j)
	}
}

// upperBound returns an admissible bound on the profit obtainable from items
// order[k:] under the current remaining capacities: the minimum over
// constraints of the single-constraint fractional (Dantzig) bound, further
// capped by the plain suffix-profit sum. Each single-constraint relaxation
// drops the other constraints, so each is a valid upper bound; the minimum
// of valid upper bounds is valid.
func (st *bnbState) upperBound(k int) int64 {
	bound := st.suffixProfit[k]
	for i := range st.bounds {
		if fb := st.fractionalBound(&st.bounds[i]); fb < bound {
			bound = fb
		}
	}
	return bound
}

// fractionalBound computes the Dantzig bound for one constraint over the
// undecided items: walk its list, take items greedily, and take a fraction
// of the first item that does not fit. With proper density sorting this
// equals the LP optimum of the single-constraint relaxation, hence a valid
// upper bound.
func (st *bnbState) fractionalBound(l *boundList) int64 {
	remain := st.remain[l.con]
	var profit float64
	end := len(l.next) - 1
	for j := l.next[end]; j != end; j = l.next[j] {
		w := st.p.Weights[l.con][j]
		if w <= remain {
			remain -= w
			profit += float64(st.p.Profits[j])
			continue
		}
		if remain > 0 {
			profit += float64(st.p.Profits[j]) * float64(remain) / float64(w)
		}
		break
	}
	return int64(math.Ceil(profit))
}
