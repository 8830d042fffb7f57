package knapsack

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func solveOrDie(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEmptyProblem(t *testing.T) {
	s := solveOrDie(t, &Problem{})
	if s.Profit != 0 || !s.Optimal {
		t.Fatalf("got %+v", s)
	}
}

func TestSingleConstraintClassic(t *testing.T) {
	// Classic instance: optimal is items {1,2} with profit 220.
	p := &Problem{
		Profits:    []int64{60, 100, 120},
		Weights:    [][]int64{{10, 20, 30}},
		Capacities: []int64{50},
	}
	s := solveOrDie(t, p)
	if s.Profit != 220 {
		t.Fatalf("Profit = %d, want 220", s.Profit)
	}
	if s.Take[0] || !s.Take[1] || !s.Take[2] {
		t.Fatalf("Take = %v", s.Take)
	}
}

func TestAllItemsFit(t *testing.T) {
	p := &Problem{
		Profits:    []int64{1, 2, 3},
		Weights:    [][]int64{{1, 1, 1}, {2, 2, 2}},
		Capacities: []int64{10, 10},
	}
	s := solveOrDie(t, p)
	if s.Profit != 6 {
		t.Fatalf("Profit = %d, want 6", s.Profit)
	}
}

func TestNoItemFits(t *testing.T) {
	p := &Problem{
		Profits:    []int64{5, 5},
		Weights:    [][]int64{{10, 20}},
		Capacities: []int64{9},
	}
	s := solveOrDie(t, p)
	if s.Profit != 0 {
		t.Fatalf("Profit = %d, want 0", s.Profit)
	}
}

func TestOversizedItemExcludedOthersKept(t *testing.T) {
	p := &Problem{
		Profits:    []int64{1000, 7},
		Weights:    [][]int64{{100, 3}, {1, 50}},
		Capacities: []int64{50, 60},
	}
	s := solveOrDie(t, p)
	if s.Profit != 7 || s.Take[0] || !s.Take[1] {
		t.Fatalf("got %+v", s)
	}
}

func TestZeroWeightItemsAlwaysTaken(t *testing.T) {
	p := &Problem{
		Profits:    []int64{3, 9},
		Weights:    [][]int64{{0, 10}, {0, 10}},
		Capacities: []int64{5, 5},
	}
	s := solveOrDie(t, p)
	if s.Profit != 3 || !s.Take[0] {
		t.Fatalf("got %+v", s)
	}
}

func TestMultiConstraintBinding(t *testing.T) {
	// Constraint 0 allows items {0,1}; constraint 1 allows {0,2};
	// jointly only one of {1,2} can accompany item 0.
	p := &Problem{
		Profits:    []int64{10, 8, 8},
		Weights:    [][]int64{{1, 5, 9}, {1, 9, 5}},
		Capacities: []int64{10, 10},
	}
	s := solveOrDie(t, p)
	if s.Profit != 18 {
		t.Fatalf("Profit = %d, want 18", s.Profit)
	}
	if !s.Take[0] {
		t.Fatal("item 0 should always be taken")
	}
	if s.Take[1] == s.Take[2] {
		t.Fatalf("exactly one of items 1,2 expected: %v", s.Take)
	}
}

func TestValidationErrors(t *testing.T) {
	bad := []*Problem{
		{Profits: []int64{1}, Weights: [][]int64{{1, 2}}, Capacities: []int64{5}},
		{Profits: []int64{1}, Weights: [][]int64{{1}}, Capacities: []int64{5, 6}},
		{Profits: []int64{-1}, Weights: [][]int64{{1}}, Capacities: []int64{5}},
		{Profits: []int64{1}, Weights: [][]int64{{-1}}, Capacities: []int64{5}},
		{Profits: []int64{1}, Weights: [][]int64{{1}}, Capacities: []int64{-5}},
	}
	for i, p := range bad {
		if _, err := Solve(p); err == nil {
			t.Errorf("case %d: invalid problem accepted", i)
		}
	}
}

// bruteForce enumerates all 2^n selections; n must be small.
func bruteForce(p *Problem) int64 {
	n := len(p.Profits)
	var best int64
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for i := range p.Capacities {
			var w int64
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					w += p.Weights[i][j]
				}
			}
			if w > p.Capacities[i] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		var pr int64
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				pr += p.Profits[j]
			}
		}
		if pr > best {
			best = pr
		}
	}
	return best
}

func randomProblem(rng *rand.Rand, n, m int) *Problem {
	p := &Problem{
		Profits:    make([]int64, n),
		Weights:    make([][]int64, m),
		Capacities: make([]int64, m),
	}
	for j := 0; j < n; j++ {
		p.Profits[j] = int64(rng.Intn(100))
	}
	for i := 0; i < m; i++ {
		p.Weights[i] = make([]int64, n)
		var total int64
		for j := 0; j < n; j++ {
			p.Weights[i][j] = int64(rng.Intn(50))
			total += p.Weights[i][j]
		}
		// Capacity between 0 and the total weight so constraints bind often.
		if total > 0 {
			p.Capacities[i] = int64(rng.Int63n(total + 1))
		}
	}
	return p
}

func TestMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		m := 1 + rng.Intn(4)
		p := randomProblem(rng, n, m)
		s, err := Solve(p)
		if err != nil || !s.Optimal {
			return false
		}
		return s.Profit == bruteForce(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSolutionIsFeasibleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 1+rng.Intn(25), 1+rng.Intn(6))
		s, err := Solve(p)
		if err != nil {
			return false
		}
		var profit int64
		for i := range p.Capacities {
			var w int64
			for j, take := range s.Take {
				if take {
					w += p.Weights[i][j]
				}
			}
			if w > p.Capacities[i] {
				return false
			}
		}
		for j, take := range s.Take {
			if take {
				profit += p.Profits[j]
			}
		}
		return profit == s.Profit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBnBAtLeastGreedyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 1+rng.Intn(30), 2+rng.Intn(5))
		gp, _ := greedySeed(p, itemOrder(p, feasibleItems(p)))
		s, err := Solve(p)
		if err != nil {
			return false
		}
		return s.Profit >= gp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDPAndBnBAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 1+rng.Intn(14), 1)
		feasible := make([]bool, len(p.Profits))
		for j := range feasible {
			feasible[j] = p.Weights[0][j] <= p.Capacities[0]
		}
		dp, err := solveDP(p, feasible)
		if err != nil {
			return false
		}
		bb, err := solveBnB(p, feasible)
		if err != nil {
			return false
		}
		return dp.Profit == bb.Profit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHundredItemInstanceIsFast(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProblem(rng, 100, 40)
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Optimal {
		t.Fatalf("100-item instance not solved to optimality (%d nodes)", s.Nodes)
	}
}
