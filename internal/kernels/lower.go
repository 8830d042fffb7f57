package kernels

import (
	"sort"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// Lower rewrites the supported subtrees of an engine plan onto kernel
// operators and returns the (possibly new) root. The lowering rules:
//
//	Filter(HashJoin)        → pushdown          every conjunct compiles;
//	                                            one-sided conjuncts move
//	                                            below the join as side
//	                                            filters, and the join
//	                                            itself may then lower
//	HashJoin(side, side)    → HashJoinScan      each side a Scan, a
//	                                            Filter(Scan) whose
//	                                            predicate compiles, or
//	                                            another HashJoinScan (a
//	                                            join probing a join's
//	                                            chunked output), and every
//	                                            key column pair shares an
//	                                            INT or STRING type
//	Aggregate(Scan)         → AggScan           always (argument errors
//	                                            reproduce row-engine order)
//	Aggregate(HashJoinScan) → AggScan           consumes the join's chunked
//	                                            output, no materialization
//	Project(HashJoinScan)   → fused Proj        only ColRef outputs; joined
//	                                            columns nothing reads
//	                                            never materialize
//
// Everything else keeps its row-engine operator, with children lowered
// recursively. Each kernel operator retains its original subtree and falls
// back to it at run time when the scanned table is not available in
// chunked form, so results are byte-identical either way. A filtered join
// side counts as one lowered operator of its own.
func Lower(root engine.Node, st *Stats) engine.Node {
	return LowerEnv(root, st, encoding.Options{})
}

// LowerEnv is Lower with a codec policy: the joins it produces emit
// compressed chunks through opts when their consumer takes chunks (a join
// or aggregate above them, the controller storing the node's output). The
// zero Options is the default policy. Each join builds its output chunks
// afresh on every run; no dictionary outlives it.
func LowerEnv(root engine.Node, st *Stats, opts encoding.Options) engine.Node {
	switch n := root.(type) {
	case *engine.Filter:
		if hj, ok := n.Input.(*engine.HashJoin); ok {
			if nn := pushdown(n, hj, st, opts); nn != nil {
				return nn
			}
			// A conjunct did not compile: lower the join in place, keep
			// the filter.
			n.Input = LowerEnv(hj, st, opts)
			return n
		}
		n.Input = LowerEnv(n.Input, st, opts)
		if hj, ok := n.Input.(*engine.HashJoin); ok {
			// A join that surfaced only after lowering the input (e.g. an
			// inner filter fully pushed its conjuncts down and dissolved)
			// still deserves this filter's pushdown.
			if nn := pushdown(n, hj, st, opts); nn != nil {
				return nn
			}
		}
		return n
	case *engine.Aggregate:
		n.Input = LowerEnv(n.Input, st, opts)
		switch in := n.Input.(type) {
		case *engine.Scan:
			if need, ok := aggNeeds(n, in.Sch); ok {
				st.Lowered++
				return &AggScan{Scan: in, Agg: n, Orig: n, need: need, St: st}
			}
		case *HashJoinScan:
			if need, ok := aggNeeds(n, in.Sch); ok {
				st.Lowered++
				return &AggScan{Inner: in, Agg: n, Orig: n, need: need, St: st}
			}
		}
		return n
	case *engine.Project:
		n.Input = LowerEnv(n.Input, st, opts)
		if in, ok := n.Input.(*HashJoinScan); ok {
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
		n.Input = LowerEnv(n.Input, st, opts)
		return n
	case *engine.Limit:
		n.Input = LowerEnv(n.Input, st, opts)
		return n
	case *engine.HashJoin:
		n.Left = LowerEnv(n.Left, st, opts)
		n.Right = LowerEnv(n.Right, st, opts)
		if js := lowerJoin(n, st, opts); js != nil {
			return js
		}
		return n
	}
	return root
}

// lowerJoin rewrites a HashJoin whose (already lowered) sides are plain or
// filtered scans or other join kernels onto the join kernel, counting the
// join and each filtered side as lowered operators. It declines — returning
// nil, keeping the row engine — when a key column pair differs in type or
// is FLOAT: float keys fall back so the row engine's NaN and signed-zero
// bucketing stays authoritative, and the kernel's shared key dictionary
// only ever holds INT or STRING keys.
func lowerJoin(hj *engine.HashJoin, st *Stats, opts encoding.Options) *HashJoinScan {
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
	st.Lowered++
	if left.Pred != nil {
		st.Lowered++
	}
	if right.Pred != nil {
		st.Lowered++
	}
	return &HashJoinScan{
		Left: left, Right: right,
		LeftKeys: hj.LeftKeys, RightKeys: hj.RightKeys,
		Sch:  hj.Schema(),
		Orig: hj, St: st, Opts: opts,
	}
}

// joinSideOf extracts one join input: a scan, a filter over a scan whose
// predicate compiles (it becomes the side's predicate), or another join
// kernel consumed as an inner operator.
func joinSideOf(n engine.Node) (JoinSide, bool) {
	switch v := n.(type) {
	case *engine.Scan:
		return JoinSide{Scan: v}, true
	case *engine.Filter:
		if sc, ok := v.Input.(*engine.Scan); ok {
			if p, ok := Compile(v.Pred, sc.Sch); ok {
				return JoinSide{Scan: sc, Pred: p}, true
			}
		}
	case *HashJoinScan:
		return JoinSide{Inner: v}, true
	}
	return JoinSide{}, false
}

// projectCols reports the input column read by each output column when the
// projection consists solely of in-range column references — the shape
// that fuses into a join. Anything computed (arithmetic, literals, custom
// expressions) keeps the row engine.
func projectCols(p *engine.Project, sch table.Schema) ([]int, bool) {
	if len(p.Exprs) == 0 {
		return nil, false
	}
	cols := make([]int, len(p.Exprs))
	for i, e := range p.Exprs {
		cr, ok := e.(*engine.ColRef)
		if !ok || cr.Idx < 0 || cr.Idx >= sch.NumCols() {
			return nil, false
		}
		cols[i] = cr.Idx
	}
	return cols, true
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

// pushdown moves the conjuncts of a Filter above a HashJoin below the join,
// each onto the side whose column it compares, where it can become the
// side's predicate. It only fires when every conjunct compiles (compiled
// predicates cannot error, so filtering before the join is observationally
// identical to filtering after it: an inner equi-join preserves input row
// order, and each side's conjuncts keep their relative order). A compiled
// conjunct reads exactly one column, so nothing stays above the join.
// Returns nil when a conjunct does not compile.
func pushdown(f *engine.Filter, hj *engine.HashJoin, st *Stats, opts encoding.Options) engine.Node {
	joined := hj.Schema()
	leftW := hj.Left.Schema().NumCols()
	var leftPs, rightPs []engine.Expr
	for _, c := range splitAnd(f.Pred) {
		p, ok := Compile(c, joined)
		if !ok {
			return nil
		}
		if p.col < leftW {
			leftPs = append(leftPs, c)
		} else {
			rightPs = append(rightPs, rebase(c, -leftW))
		}
	}
	hj.Left = lowerFiltered(hj.Left, leftPs, st, opts)
	hj.Right = lowerFiltered(hj.Right, rightPs, st, opts)
	// With the sides settled, the join itself may lower onto the join
	// kernel (the pushed-down filters ride along as side predicates).
	if js := lowerJoin(hj, st, opts); js != nil {
		return js
	}
	return hj
}

// lowerFiltered lowers a join input under the conjunction of preds, or
// alone when there are none.
func lowerFiltered(n engine.Node, preds []engine.Expr, st *Stats, opts encoding.Options) engine.Node {
	if len(preds) == 0 {
		return LowerEnv(n, st, opts)
	}
	return LowerEnv(&engine.Filter{Input: n, Pred: engine.And(preds)}, st, opts)
}

// splitAnd flattens a conjunction into its conjuncts in evaluation order.
func splitAnd(e engine.Expr) []engine.Expr {
	if b, ok := e.(*engine.Bin); ok && b.Op == engine.OpAnd {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []engine.Expr{e}
}

// rebase returns a copy of a compiled comparison with its column index
// shifted by delta (pushing a predicate below a join re-bases right-side
// columns into the right input's schema). The input is not mutated — it
// may be shared with the fallback subtree.
func rebase(c engine.Expr, delta int) engine.Expr {
	b := c.(*engine.Bin)
	cr := b.L.(*engine.ColRef)
	return &engine.Bin{Op: b.Op, L: &engine.ColRef{Idx: cr.Idx + delta, Name: cr.Name}, R: b.R}
}
