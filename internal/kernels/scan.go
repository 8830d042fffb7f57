package kernels

import (
	"fmt"

	"github.com/shortcircuit-db/sc/internal/engine"
	"github.com/shortcircuit-db/sc/internal/table"
)

// ScanOp is the fused Project?∘Filter?∘Scan kernel: it resolves the scanned
// table in chunked form, evaluates the compiled predicate per row group —
// in code space where the chunk encoding allows — and late-materializes
// only the surviving rows of only the columns it outputs. Pred is nil for
// an unfiltered projection; Cols is nil for a filter, which outputs every
// column in schema order.
//
// Cols comes from a projection that only drops, duplicates or permutes
// plain column references. Such a projection cannot compute anything — a
// ColRef's planned type always equals the input column's type, so no
// coercion applies either — which means chunks pass through
// column-selected instead of being evaluated row by row: columns the
// projection drops are never decoded. Output is byte-identical to Orig,
// the row-engine subtree it replaced, which doubles as the runtime
// fallback.
type ScanOp struct {
	Scan *engine.Scan
	Pred *Pred
	Cols []int        // input column read by each output column
	Sch  table.Schema // output schema
	Orig engine.Node
	St   *Stats
}

// Schema implements engine.Node.
func (s *ScanOp) Schema() table.Schema { return s.Sch }

// String implements engine.Node.
func (s *ScanOp) String() string {
	str := "KernelScan(" + s.Scan.Name
	if s.Pred != nil {
		str += ", " + s.Pred.String()
	}
	if s.Cols != nil {
		str += fmt.Sprintf(", cols=%v", s.Cols)
	}
	return str + ")"
}

// Run implements engine.Node.
func (s *ScanOp) Run(ctx *engine.Context) (*table.Table, error) {
	ct, groups := resolveChunked(ctx, s.Scan)
	if ct == nil {
		s.St.Fallbacks++
		return s.Orig.Run(ctx)
	}
	outs, err := walkGroups(walk{ctx: ctx, ct: ct, groups: groups, pred: s.Pred, st: s.St},
		func() *table.Table { return table.New(s.Sch) },
		func(out *table.Table, cc *chunkCtx, sel *bitmap) error {
			for oc, dst := range out.Cols {
				ic := oc
				if s.Cols != nil {
					ic = s.Cols[oc]
				}
				if err := cc.materializeCol(dst, ic, sel); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("kernels: scan %q: %w", s.Scan.Name, err)
	}
	out := outs[0]
	for _, part := range outs[1:] {
		for ci, dst := range out.Cols {
			appendAll(dst, part.Cols[ci])
		}
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
