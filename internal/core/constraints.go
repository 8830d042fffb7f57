package core

import (
	"slices"

	"github.com/shortcircuit-db/sc/internal/dag"
)

// ConstraintSets is the output of GetConstraints (Algorithm 1, line 2):
// the maximal, non-trivial memory coexistence sets for a given execution
// order, plus bookkeeping about which nodes participate.
type ConstraintSets struct {
	// Sets lists each retained constraint set as node IDs sorted ascending.
	Sets [][]dag.NodeID
	// Candidates are the nodes appearing in at least one retained set.
	Candidates []dag.NodeID
	// Excluded are nodes dropped before constraint construction because
	// their size exceeds M or their score is non-positive (V_exclude).
	Excluded []dag.NodeID
	// Free are nodes that are neither excluded nor in any retained set:
	// flagging them can never violate memory constraints, so Algorithm 1
	// flags them unconditionally (line 9).
	Free []dag.NodeID
}

// GetConstraints computes, for each execution step t, the set V_t of
// non-excluded nodes whose flagged outputs would coexist in the Memory
// Catalog during step t:
//
//	V_t = { j : pos(j) ≤ t ≤ release(j), j ∉ V_exclude }
//
// then discards sets that are non-maximal (strict subset of another set) or
// trivial (total member size ≤ M, so the constraint cannot bind). This is
// the linear-scan constraint extraction of §V-A.
func GetConstraints(p *Problem, order []dag.NodeID) *ConstraintSets {
	n := p.G.Len()
	out := &ConstraintSets{}
	excluded := make([]bool, n)
	for i := 0; i < n; i++ {
		if p.Sizes[i] > p.Memory || p.Scores[i] <= 0 {
			excluded[i] = true
			out.Excluded = append(out.Excluded, dag.NodeID(i))
		}
	}
	pos := Positions(order)
	rel := ReleasePositions(p.G, order)

	// Linear scan: maintain the active interval set step by step.
	// startAt[t] / endAt[t] list nodes whose interval begins/ends at t.
	startAt := make([][]dag.NodeID, n)
	endAt := make([][]dag.NodeID, n)
	for i := 0; i < n; i++ {
		if excluded[i] {
			continue
		}
		startAt[pos[i]] = append(startAt[pos[i]], dag.NodeID(i))
		endAt[rel[i]] = append(endAt[rel[i]], dag.NodeID(i))
	}
	active := make(map[dag.NodeID]bool)
	raw := make([][]dag.NodeID, 0, n)
	for t := 0; t < n; t++ {
		for _, id := range startAt[t] {
			active[id] = true
		}
		if len(active) > 0 {
			set := make([]dag.NodeID, 0, len(active))
			for id := range active {
				set = append(set, id)
			}
			slices.Sort(set)
			raw = append(raw, set)
		}
		for _, id := range endAt[t] {
			delete(active, id)
		}
	}

	retained := filterMaximalNonTrivial(raw, p.Sizes, p.Memory)
	out.Sets = retained

	inSet := make([]bool, n)
	for _, set := range retained {
		for _, id := range set {
			inSet[id] = true
		}
	}
	for i := 0; i < n; i++ {
		id := dag.NodeID(i)
		switch {
		case excluded[i]:
		case inSet[i]:
			out.Candidates = append(out.Candidates, id)
		default:
			out.Free = append(out.Free, id)
		}
	}
	return out
}

// filterMaximalNonTrivial drops duplicate sets, sets whose total size cannot
// exceed the capacity (trivial), and sets that are strict subsets of another
// retained set (non-maximal). Bitsets keep the pairwise subset checks cheap.
func filterMaximalNonTrivial(raw [][]dag.NodeID, sizes []int64, capacity int64) [][]dag.NodeID {
	type entry struct {
		set  []dag.NodeID
		bits []uint64
		n    int
	}
	var entries []entry
	seen := make(map[string]bool)
	for _, set := range raw {
		var total int64
		for _, id := range set {
			total += sizes[id]
		}
		if total <= capacity {
			continue // trivial: cannot be violated
		}
		key := fingerprint(set)
		if seen[key] {
			continue
		}
		seen[key] = true
		entries = append(entries, entry{set: set, bits: toBits(set), n: len(set)})
	}
	var out [][]dag.NodeID
	for _, e := range entries {
		if !slices.ContainsFunc(entries, func(f entry) bool { return e.n < f.n && subsetBits(e.bits, f.bits) }) {
			out = append(out, e.set)
		}
	}
	return out
}

func fingerprint(set []dag.NodeID) string {
	b := make([]byte, 0, len(set)*3)
	for _, id := range set {
		v := uint32(id)
		b = append(b, byte(v), byte(v>>8), byte(v>>16))
	}
	return string(b)
}

func toBits(set []dag.NodeID) []uint64 {
	var maxID dag.NodeID
	for _, id := range set {
		if id > maxID {
			maxID = id
		}
	}
	bits := make([]uint64, int(maxID)/64+1)
	for _, id := range set {
		bits[int(id)/64] |= 1 << (uint(id) % 64)
	}
	return bits
}

// subsetBits reports whether a ⊆ b.
func subsetBits(a, b []uint64) bool {
	for i, w := range a {
		var bw uint64
		if i < len(b) {
			bw = b[i]
		}
		if w&^bw != 0 {
			return false
		}
	}
	return true
}
