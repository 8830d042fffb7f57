package kernels

import (
	"sort"

	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// Lower rewrites the supported subtrees of an engine plan onto kernel
// operators and returns the (possibly new) root. The lowering rules:
//
//	Filter(Scan)            → ScanOp            predicate compiles
//	Filter(ScanOp)          → ScanOp            conjunction fused (only over
//	                                            a ScanOp that does not
//	                                            project; likewise below)
//	Filter(HashJoin)        → pushdown          every conjunct compiles;
//	                                            one-sided conjuncts move
//	                                            below the join, may fuse
//	                                            with a scan, and the join
//	                                            itself may then lower
//	HashJoin(side, side)    → HashJoinScan      both sides Scan/ScanOp or
//	                                            another HashJoinScan (a
//	                                            join probing a join's
//	                                            chunked output), and every
//	                                            key column pair shares an
//	                                            INT or STRING type
//	Aggregate(Scan)         → AggScan           always (argument errors
//	                                            reproduce row-engine order)
//	Aggregate(ScanOp)       → AggScan           selection vector flows in
//	Aggregate(HashJoinScan) → AggScan           consumes the join's chunked
//	                                            output, no materialization
//	Project(Scan)           → ScanOp            only ColRef outputs (drop,
//	                                            duplicate or permute)
//	Project(ScanOp)         → ScanOp            selection vector flows in
//	Project(HashJoinScan)   → fused Proj        joined columns nothing
//	                                            reads never materialize
//
// Everything else keeps its row-engine operator, with children lowered
// recursively. Each kernel operator retains its original subtree and falls
// back to it at run time when the scanned table is not available in
// chunked form, so results are byte-identical either way.
func Lower(root engine.Node, st *Stats) engine.Node {
	return LowerEnv(root, st, nil)
}

// LowerEnv is Lower with a chunked-output environment: the joins it
// produces emit compressed chunks through env's codec policy and session
// dictionary cache when their consumer takes chunks (a join or aggregate
// above them, the controller storing the node's output).
func LowerEnv(root engine.Node, st *Stats, env *Env) engine.Node {
	return lower(root, st, env)
}

func lower(root engine.Node, st *Stats, env *Env) engine.Node {
	switch n := root.(type) {
	case *engine.Filter:
		if hj, ok := n.Input.(*engine.HashJoin); ok {
			if nn := pushdown(n, hj, st, env); nn != nil {
				return nn
			}
			// Nothing moved: lower the join in place, keep the filter.
			n.Input = lower(hj, st, env)
			return n
		}
		n.Input = lower(n.Input, st, env)
		if sc, under, ok := scanUnder(n.Input); ok {
			if p, ok := Compile(n.Pred, sc.Sch); ok {
				st.Lowered++
				if under != nil {
					p = &Pred{kind: predAnd, kids: []*Pred{under, p}}
				}
				return &ScanOp{Scan: sc, Pred: p, Sch: sc.Sch, Orig: n, St: st}
			}
		} else if hj, ok := n.Input.(*engine.HashJoin); ok {
			// A join that surfaced only after lowering the input (e.g. an
			// inner filter fully pushed its conjuncts down and dissolved)
			// still deserves this filter's pushdown.
			if nn := pushdown(n, hj, st, env); nn != nil {
				return nn
			}
		}
		return n
	case *engine.Aggregate:
		n.Input = lower(n.Input, st, env)
		if sc, pred, ok := scanUnder(n.Input); ok {
			if need, ok := aggNeeds(n, sc.Sch); ok {
				st.Lowered++
				return &AggScan{Scan: sc, Pred: pred, Agg: n, Orig: n, need: need, St: st}
			}
		} else if in, ok := n.Input.(*HashJoinScan); ok {
			if need, ok := aggNeeds(n, in.Sch); ok {
				st.Lowered++
				return &AggScan{Inner: in, Agg: n, Orig: n, need: need, St: st}
			}
		}
		return n
	case *engine.Project:
		n.Input = lower(n.Input, st, env)
		if sc, pred, ok := scanUnder(n.Input); ok {
			if cols, ok := projectCols(n, sc.Sch); ok {
				st.Lowered++
				return &ScanOp{Scan: sc, Pred: pred, Cols: cols, Sch: n.Schema(), Orig: n, St: st}
			}
		} else if in, ok := n.Input.(*HashJoinScan); ok {
			// Fuse a columns-only projection into the join: joined columns
			// the projection drops never materialize — build-side chunks
			// nothing reads are skipped outright. The fused kernel keeps
			// this Project node as its fallback, so a non-chunked run still
			// evaluates Project(HashJoin) on the row engine.
			if cols, ok := projectCols(n, in.Sch); ok && in.Proj == nil {
				st.Lowered++
				fused := *in
				fused.Proj = cols
				fused.Sch = n.Schema()
				fused.Orig = n
				return &fused
			}
		}
		return n
	case *engine.Sort:
		n.Input = lower(n.Input, st, env)
		return n
	case *engine.Limit:
		n.Input = lower(n.Input, st, env)
		return n
	case *engine.HashJoin:
		n.Left = lower(n.Left, st, env)
		n.Right = lower(n.Right, st, env)
		if js := lowerJoin(n, st, env); js != nil {
			st.Lowered++
			return js
		}
		return n
	case *engine.UnionAll:
		for i := range n.Inputs {
			n.Inputs[i] = lower(n.Inputs[i], st, env)
		}
		return n
	}
	return root
}

// lowerJoin rewrites a HashJoin whose (already lowered) sides are plain
// scans, filtering ScanOps or other join kernels onto the code-space join
// kernel. It declines — returning nil, keeping the row engine — when a
// key column pair differs in type or is FLOAT: float keys fall back so the
// row engine's NaN and signed-zero bucketing stays authoritative, and the
// kernel's shared key dictionary only ever holds the types the dict codec
// encodes.
func lowerJoin(hj *engine.HashJoin, st *Stats, env *Env) *HashJoinScan {
	if len(hj.LeftKeys) == 0 || len(hj.LeftKeys) != len(hj.RightKeys) {
		return nil
	}
	left, ok := joinSideOf(hj.Left)
	if !ok {
		return nil
	}
	right, ok := joinSideOf(hj.Right)
	if !ok {
		return nil
	}
	lsch, rsch := left.Schema(), right.Schema()
	for p := range hj.LeftKeys {
		lc, rc := hj.LeftKeys[p], hj.RightKeys[p]
		if lc < 0 || lc >= lsch.NumCols() || rc < 0 || rc >= rsch.NumCols() {
			return nil
		}
		lt, rt := lsch.Cols[lc].Type, rsch.Cols[rc].Type
		if lt != rt || lt == table.Float {
			return nil
		}
	}
	return &HashJoinScan{
		Left: left, Right: right,
		LeftKeys: hj.LeftKeys, RightKeys: hj.RightKeys,
		Sch:  hj.Schema(),
		Orig: hj, St: st, Env: env, ID: env.newID(),
	}
}

// scanUnder recognizes the inputs a scan-shaped kernel fuses with: a plain
// scan, or a ScanOp that only filters (its predicate rides along). A ScanOp
// that projects is a different table and fuses with nothing.
func scanUnder(n engine.Node) (*engine.Scan, *Pred, bool) {
	switch v := n.(type) {
	case *engine.Scan:
		return v, nil, true
	case *ScanOp:
		if v.Cols == nil {
			return v.Scan, v.Pred, true
		}
	}
	return nil, nil, false
}

// joinSideOf extracts one join input: a scan (with its fused filter), or
// another join kernel consumed as an inner operator.
func joinSideOf(n engine.Node) (JoinSide, bool) {
	if sc, pred, ok := scanUnder(n); ok {
		return JoinSide{Scan: sc, Pred: pred}, true
	}
	if v, ok := n.(*HashJoinScan); ok {
		return JoinSide{Inner: v}, true
	}
	return JoinSide{}, false
}

// aggNeeds returns the ascending set of input columns the aggregation
// reads: group-by keys plus every column referenced by an aggregate
// argument. It reports false when an argument contains an expression form
// it cannot analyze.
func aggNeeds(a *engine.Aggregate, sch table.Schema) ([]int, bool) {
	set := make(map[int]bool)
	for _, g := range a.GroupBy {
		if g < 0 || g >= sch.NumCols() {
			return nil, false
		}
		set[g] = true
	}
	for _, spec := range a.Aggs {
		if spec.Arg == nil {
			continue
		}
		if !collectCols(spec.Arg, sch, set) {
			return nil, false
		}
	}
	need := make([]int, 0, len(set))
	for c := range set {
		need = append(need, c)
	}
	sort.Ints(need)
	return need, true
}

// collectCols records every column an expression reads, reporting false on
// expression forms outside the engine's closed set (a custom Expr could
// observe columns invisibly, so it blocks lowering).
func collectCols(e engine.Expr, sch table.Schema, set map[int]bool) bool {
	switch v := e.(type) {
	case *engine.ColRef:
		if v.Idx < 0 || v.Idx >= sch.NumCols() {
			return false
		}
		set[v.Idx] = true
		return true
	case *engine.Lit:
		return true
	case *engine.Bin:
		return collectCols(v.L, sch, set) && collectCols(v.R, sch, set)
	case *engine.Not:
		return collectCols(v.E, sch, set)
	case *engine.InList:
		return collectCols(v.E, sch, set)
	}
	return false
}

// pushdown moves one-sided conjuncts of a Filter above a HashJoin below
// the join, where they can fuse with a scan kernel. It only fires when
// every conjunct compiles (compiled predicates cannot error, so filtering
// before the join is observationally identical to filtering after it: an
// inner equi-join preserves input row order, and conjuncts that stay
// above keep their original relative order). Returns nil when nothing
// moved.
func pushdown(f *engine.Filter, hj *engine.HashJoin, st *Stats, env *Env) engine.Node {
	joined := hj.Schema()
	leftW := hj.Left.Schema().NumCols()
	conjs := splitAnd(f.Pred)
	var leftPs, rightPs, residual []engine.Expr
	for _, c := range conjs {
		if _, ok := Compile(c, joined); !ok {
			return nil
		}
		set := make(map[int]bool)
		if !collectCols(c, joined, set) {
			return nil
		}
		side := 0 // -1 left, 1 right, 0 mixed or column-free
		for col := range set {
			s := -1
			if col >= leftW {
				s = 1
			}
			if side == 0 {
				side = s
			} else if side != s {
				side = 2 // mixed
				break
			}
		}
		switch side {
		case -1:
			leftPs = append(leftPs, c)
		case 1:
			rightPs = append(rightPs, rebaseCols(c, -leftW))
		default:
			residual = append(residual, c)
		}
	}
	if len(leftPs) == 0 && len(rightPs) == 0 {
		return nil
	}
	if len(leftPs) > 0 {
		hj.Left = lower(&engine.Filter{Input: hj.Left, Pred: andAll(leftPs)}, st, env)
	} else {
		hj.Left = lower(hj.Left, st, env)
	}
	if len(rightPs) > 0 {
		hj.Right = lower(&engine.Filter{Input: hj.Right, Pred: andAll(rightPs)}, st, env)
	} else {
		hj.Right = lower(hj.Right, st, env)
	}
	// With the sides settled, the join itself may lower onto the code-space
	// kernel (the pushed-down filters ride along as side predicates).
	var joinNode engine.Node = hj
	if js := lowerJoin(hj, st, env); js != nil {
		st.Lowered++
		joinNode = js
	}
	if len(residual) == 0 {
		return joinNode
	}
	f.Pred = andAll(residual)
	f.Input = joinNode
	return f
}

// splitAnd flattens a conjunction into its conjuncts in evaluation order.
func splitAnd(e engine.Expr) []engine.Expr {
	if b, ok := e.(*engine.Bin); ok && b.Op == engine.OpAnd {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []engine.Expr{e}
}

// andAll rebuilds a left-associative conjunction, preserving the
// conjuncts' evaluation order.
func andAll(es []engine.Expr) engine.Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = &engine.Bin{Op: engine.OpAnd, L: out, R: e}
	}
	return out
}

// rebaseCols returns a copy of the expression with every column index
// shifted by delta (pushing a predicate below a join re-bases right-side
// columns into the right input's schema). The input is not mutated — it
// may be shared with the fallback subtree.
func rebaseCols(e engine.Expr, delta int) engine.Expr {
	switch v := e.(type) {
	case *engine.ColRef:
		return &engine.ColRef{Idx: v.Idx + delta, Name: v.Name}
	case *engine.Lit:
		return v
	case *engine.Bin:
		return &engine.Bin{Op: v.Op, L: rebaseCols(v.L, delta), R: rebaseCols(v.R, delta)}
	case *engine.Not:
		return &engine.Not{E: rebaseCols(v.E, delta)}
	case *engine.InList:
		return &engine.InList{E: rebaseCols(v.E, delta), List: v.List}
	}
	return e
}
