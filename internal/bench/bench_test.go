package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

func TestMethodsRoster(t *testing.T) {
	ms := Methods()
	if len(ms) != 6 {
		t.Fatalf("methods = %d, want 6", len(ms))
	}
	if !ms[0].NoOpt || !ms[1].LRU {
		t.Fatal("first two methods must be NoOpt and LRU")
	}
	if !strings.HasPrefix(ms[5].Name, "S/C") || !ms[5].Alternate {
		t.Fatalf("last method must be alternating S/C: %+v", ms[5])
	}
}

func TestPlanForEachMethodFeasible(t *testing.T) {
	d := costmodel.PaperProfile()
	_, p, err := tpcds.Build(tpcds.IO1, tpcds.ScaleBytes(10), tpcds.Regular(),
		tpcds.MemoryForFraction(tpcds.ScaleBytes(10), 0.016), d)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(Methods(), AblationMethods()...) {
		pl, _, err := PlanFor(m, p)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if !core.Feasible(p, pl) {
			t.Fatalf("%s: infeasible plan", m.Name)
		}
	}
}

func TestSCBeatsNoOptOnIOWorkloads(t *testing.T) {
	d := costmodel.PaperProfile()
	noOpt, scm := Methods()[0], Methods()[5]
	for _, wl := range []tpcds.WorkloadName{tpcds.IO1, tpcds.IO2, tpcds.IO3} {
		base, err := SimWorkload(noOpt, wl, 100, tpcds.Regular(), 0.016, 1, d)
		if err != nil {
			t.Fatal(err)
		}
		ours, err := SimWorkload(scm, wl, 100, tpcds.Regular(), 0.016, 1, d)
		if err != nil {
			t.Fatal(err)
		}
		speedup := base.Total / ours.Total
		if speedup < 1.2 {
			t.Errorf("%s: speedup %.2f < 1.2", wl, speedup)
		}
		if speedup > 6 {
			t.Errorf("%s: speedup %.2f implausibly high", wl, speedup)
		}
	}
}

func TestPartitionedBeatsRegular(t *testing.T) {
	d := costmodel.PaperProfile()
	noOpt, scm := Methods()[0], Methods()[5]
	baseR, err := SimSuite(noOpt, 100, tpcds.Regular(), 0.016, 1, d)
	if err != nil {
		t.Fatal(err)
	}
	oursR, err := SimSuite(scm, 100, tpcds.Regular(), 0.016, 1, d)
	if err != nil {
		t.Fatal(err)
	}
	baseP, err := SimSuite(noOpt, 100, tpcds.Partitioned(), 0.016, 1, d)
	if err != nil {
		t.Fatal(err)
	}
	oursP, err := SimSuite(scm, 100, tpcds.Partitioned(), 0.016, 1, d)
	if err != nil {
		t.Fatal(err)
	}
	if baseP/oursP <= baseR/oursR {
		t.Fatalf("TPC-DSp speedup %.2f not above TPC-DS %.2f", baseP/oursP, baseR/oursR)
	}
}

func TestExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	cases := []struct {
		name string
		run  func(buf *bytes.Buffer) error
	}{
		{"fig3", func(b *bytes.Buffer) error { return Fig3(b) }},
		{"table3", func(b *bytes.Buffer) error { return Table3(b) }},
		{"table5", func(b *bytes.Buffer) error { return Table5(b) }},
		{"fig13", func(b *bytes.Buffer) error { return Fig13(b, 2) }},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.run(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", c.name)
		}
	}
}

func TestTable3MatchesPaperRows(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"I/O 1", "Compute 2", "5, 77, 80", "26"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table III output missing %q:\n%s", want, out)
		}
	}
}
