package core_test

import (
	"context"
	"testing"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/opt"
	"github.com/shortcircuit-db/sc/internal/wlgen"
)

// BenchmarkPeakMemoryUsage measures the memory proof on the optimizer's
// scale: a generated 200-node DAG and the plan opt.Solve finds for it under
// a 2 GiB catalog, as the benchmark's opt.solve_n200 layer solves it.
func BenchmarkPeakMemoryUsage(b *testing.B) {
	gen, err := wlgen.Generate(wlgen.Params{Nodes: 200, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	p := gen.Problem(2<<30, costmodel.PaperProfile())
	pl, _, err := opt.Solve(context.Background(), p, opt.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if core.PeakMemoryUsage(p, pl) > p.Memory {
			b.Fatal("solved plan over budget")
		}
	}
}
