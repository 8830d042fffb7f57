package bench

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/opt"
	"github.com/shortcircuit-db/sc/internal/sim"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestFiguresGolden pins the printed rows of every deterministic paper
// figure and table. Fig13 (wall-clock solve times) and Fig14 (seconds of
// generated-DAG sweeps) are left out. A change that means to move a figure
// rewrites the golden with `go test -run TestFiguresGolden -update`.
func TestFiguresGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, f := range []func(io.Writer) error{Fig3, Table3, Fig9, Fig10, Fig11, Table4, Fig12, Table5} {
		if err := f(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("\n")
	}
	checkGolden(t, "figures.golden", buf.Bytes())
}

// TestSimEventsGolden pins the simulator's whole event stream for the run
// CI's scrun step makes (S/C on I/O 1 at 10 GB, 1.6 % catalog): kind, node,
// step, bytes and the virtual Elapsed in µs of every event, in order. The
// interleaving of Materialized, Evicted and MemoryHighWater is the part no
// other test pins.
func TestSimEventsGolden(t *testing.T) {
	scale := tpcds.ScaleBytes(10)
	mem := tpcds.MemoryForFraction(scale, 0.016)
	d := costmodel.PaperProfile()
	w, p, err := tpcds.Build(tpcds.IO1, scale, tpcds.Regular(), mem, d)
	if err != nil {
		t.Fatal(err)
	}
	pl, _, err := PlanFor(Methods()[5], p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := sim.Config{Device: d, Memory: mem, Observer: obs.Func(func(e obs.Event) {
		fmt.Fprintf(&buf, "%s %q %d %d %d\n", e.Kind, e.Node, e.Step, e.Bytes, e.Elapsed.Microseconds())
	})}
	if _, err := sim.Run(context.Background(), w, pl, cfg); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sim_events.golden", buf.Bytes())
}

// TestSimHeadline pins the §VI headline the benchmark's traced pass reports
// as sim.*_speedup_x: S/C over the topological order with nothing flagged,
// 100 GB TPC-DS, 1.6 % catalog, to five decimals.
func TestSimHeadline(t *testing.T) {
	d := costmodel.PaperProfile()
	scale := tpcds.ScaleBytes(100)
	mem := tpcds.MemoryForFraction(scale, 0.016)
	for _, c := range []struct {
		name tpcds.WorkloadName
		want string
	}{{tpcds.IO1, "1.50198"}, {tpcds.IO2, "1.81489"}, {tpcds.Compute1, "1.00882"}} {
		w, p, err := tpcds.Build(c.name, scale, tpcds.Regular(), mem, d)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := p.G.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		pl, _, err := opt.Solve(context.Background(), p, opt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{Device: d, Memory: mem}
		base, err := sim.Run(context.Background(), w, core.NewPlan(topo), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ours, err := sim.Run(context.Background(), w, pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%.5f", ours.Speedup(base)); got != c.want {
			t.Errorf("%s: speedup %s, want %s", c.name, got, c.want)
		}
	}
}

// checkGolden compares got with testdata/name, rewriting it first under
// -update, and reports the first line that differs.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s drifted at line %d (run with -update to accept):\ngot:  %q\nwant: %q", golden, i+1, g, w)
		}
	}
}
