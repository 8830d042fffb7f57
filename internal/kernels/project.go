package kernels

import (
	"fmt"

	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// ProjectScan is a fused Project∘(Filter?)∘Scan kernel for projections that
// only drop, duplicate or permute plain column references. Such a
// projection cannot compute anything — a ColRef's planned type always
// equals the input column's type, so no coercion applies either — which
// means chunks can pass through column-selected instead of being evaluated
// row by row: columns the projection drops are never decoded, and a bare
// `SELECT col FROM t` stops materializing the whole table through the row
// engine. Output is byte-identical to Orig, the row-engine subtree, which
// doubles as the runtime fallback.
type ProjectScan struct {
	Scan *engine.Scan
	Pred *Pred // nil when the subtree had no filter
	Cols []int // input column read by each output column
	Sch  table.Schema
	Orig engine.Node
	St   *Stats
}

// Schema implements engine.Node.
func (p *ProjectScan) Schema() table.Schema { return p.Sch }

// String implements engine.Node.
func (p *ProjectScan) String() string {
	return fmt.Sprintf("KernelProjectScan(%s, cols=%v)", p.Scan.Name, p.Cols)
}

// Run implements engine.Node.
func (p *ProjectScan) Run(ctx *engine.Context) (*table.Table, error) {
	ct, groups := resolveChunked(ctx, p.Scan)
	if ct == nil {
		p.St.Fallbacks++
		return p.Orig.Run(ctx)
	}
	if pp := planPartitions(ctx, ct, groups); pp != nil {
		out, err := p.runParallel(pp, ct, groups)
		if err != nil {
			return nil, fmt.Errorf("kernels: project %q: %w", p.Scan.Name, err)
		}
		return out, nil
	}
	out := table.New(p.Sch)
	for g, rows := range groups {
		cc := newChunkCtx(ct, g, rows, p.St)
		var sel *bitmap
		if p.Pred != nil {
			var err error
			sel, err = p.Pred.eval(cc)
			if err != nil {
				return nil, fmt.Errorf("kernels: project %q: %w", p.Scan.Name, err)
			}
			if sel.none() {
				cc.finish()
				continue
			}
		}
		for oc, ic := range p.Cols {
			if err := cc.materializeCol(out.Cols[oc], ic, sel); err != nil {
				return nil, fmt.Errorf("kernels: project %q: %w", p.Scan.Name, err)
			}
		}
		cc.finish()
	}
	return out, nil
}

// projectCols reports the input column read by each output column when the
// projection consists solely of in-range column references — the shape that
// passes chunks through. Anything computed (arithmetic, literals, custom
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
