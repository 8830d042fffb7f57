package kernels

import (
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

// walk describes one pass over the row groups of a chunked table.
type walk struct {
	ct     *encoding.Compressed
	groups []int
	pred   *Pred  // nil selects every row
	st     *Stats // receives the walk's counters
	// keep, when non-nil, has one slot per row group: each group's context
	// is stored there instead of being finished, for a caller that reads
	// more columns after the walk and finishes the contexts itself.
	keep []*chunkCtx
}

// walkGroups is the kernels' one loop over row groups, run on the node's own
// token: for every group it evaluates the predicate and hands the groups
// that keep at least one row to body, in group order. sel is nil when every
// row of the group is selected. Every group's context shares one scratch
// decode buffer (chunkCtx.gather).
func walkGroups(w walk, body func(cc *chunkCtx, sel *bitmap) error) error {
	scratch := &table.Vector{}
	for g, rows := range w.groups {
		cc := newChunkCtx(w.ct, g, rows, w.st, scratch)
		if w.keep != nil {
			w.keep[g] = cc
		}
		var sel *bitmap
		selected := cc.rows
		if w.pred != nil {
			var err error
			if sel, err = w.pred.eval(cc); err != nil {
				return err
			}
			if selected = sel.count(); selected == cc.rows {
				sel = nil
			}
		}
		// A group no row survives is left without touching another column.
		if selected > 0 {
			if err := body(cc, sel); err != nil {
				return err
			}
		}
		if w.keep == nil {
			cc.finish()
		}
	}
	return nil
}
