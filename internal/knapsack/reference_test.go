package knapsack

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refSearch is the branch-and-bound with the bound it had before the
// bounding constraints kept their undecided items in lists: each bound walks
// the constraint's whole density order and skips the items decided above
// the current depth.
type refSearch struct {
	*bnbState
	pos      []int   // pos[j] = index of item j in order, or -1 if excluded
	conOrder [][]int // per bounding constraint, its density order
}

func refSolve(p *Problem) *Solution {
	st := newBnB(p, feasibleItems(p))
	r := &refSearch{bnbState: st, pos: make([]int, len(p.Profits))}
	for j := range r.pos {
		r.pos[j] = -1
	}
	for k, j := range st.order {
		r.pos[j] = k
	}
	for _, l := range st.bounds {
		co := append([]int(nil), st.order...)
		sort.SliceStable(co, func(a, b int) bool {
			return constraintDensityLess(p, l.con, co[b], co[a])
		})
		r.conOrder = append(r.conOrder, co)
	}
	r.dfs(0, 0)
	return &Solution{Take: st.bestTake, Profit: st.best, Optimal: st.nodes < MaxBnBNodes, Nodes: st.nodes}
}

func (r *refSearch) dfs(k int, profit int64) {
	st := r.bnbState
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
	if ub := profit + r.upperBound(k); ub <= st.best {
		return
	}
	j := st.order[k]
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
		r.dfs(k+1, profit+st.p.Profits[j])
		st.take[j] = false
		for i := range st.remain {
			st.remain[i] += st.p.Weights[i][j]
		}
	}
	r.dfs(k+1, profit)
}

func (r *refSearch) upperBound(k int) int64 {
	bound := r.suffixProfit[k]
	for b := range r.bounds {
		if fb := r.fractionalBound(b, k); fb < bound {
			bound = fb
		}
	}
	return bound
}

func (r *refSearch) fractionalBound(b, k int) int64 {
	i := r.bounds[b].con
	remain := r.remain[i]
	var profit float64
	for _, j := range r.conOrder[b] {
		if r.pos[j] < k {
			continue // already decided at shallower depth
		}
		w := r.p.Weights[i][j]
		if w <= remain {
			remain -= w
			profit += float64(r.p.Profits[j])
			continue
		}
		if remain > 0 {
			profit += float64(r.p.Profits[j]) * float64(remain) / float64(w)
		}
		break
	}
	return int64(math.Ceil(profit))
}

// TestBoundListsMatchReference: walking only the undecided items changes no
// Solution — not the selection, its profit, the nodes searched, nor whether
// the search ran out of budget — on random instances from one item to a
// hundred and from two constraints to past maxBoundConstraints.
func TestBoundListsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	trials, exhausted := 100, 0
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		n, m := 1+rng.Intn(100), 2+rng.Intn(9)
		p := randomProblem(rng, n, m)
		got, err := solveBnB(p, feasibleItems(p))
		if err != nil {
			t.Fatal(err)
		}
		want := refSolve(p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d items, %d constraints): got %+v, want %+v", trial, n, m, got, want)
		}
		if !got.Optimal {
			exhausted++
		}
	}
	t.Logf("%d of %d searches ran out of budget", exhausted, trials)
}
