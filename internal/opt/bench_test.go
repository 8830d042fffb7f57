package opt_test

import (
	"context"
	"testing"

	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/opt"
	"github.com/shortcircuit-db/sc/internal/wlgen"
)

// BenchmarkSolve measures the optimizer on a generated 200-node DAG under a
// 2 GiB catalog, the problem the benchmark's opt.solve_n200 layer solves.
func BenchmarkSolve(b *testing.B) {
	gen, err := wlgen.Generate(wlgen.Params{Nodes: 200, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	p := gen.Problem(2<<30, costmodel.PaperProfile())
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := opt.Solve(context.Background(), p, opt.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
