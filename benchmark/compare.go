package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json compare and the test read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerJudged are the per-layer metrics compare judges as well, on the one
// workload that measures them, each by the bound of the end-to-end metric
// named beside it. They are what a gateway user sees (tail latency, rate),
// but the contract wants every end-to-end metric from every workload, and
// a batch window of eight refreshes supports neither.
var layerJudged = map[string]map[string]string{
	"gateway-small": {
		"gateway.refresh_p90_s":   "refresh_wall_s",
		"gateway.refreshes_per_s": "refresh_wall_s",
	},
}

// bound returns the regression bound of the named end-to-end metric.
func (sp spec) bound(name string) float64 {
	for _, m := range sp.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}

// printResult writes one pass's metrics as a table, in definition order.
func printResult(w io.Writer, r *result) {
	pass := "untraced pass, end-to-end metrics"
	if r.Traced {
		pass = "traced pass, per-layer metrics"
	}
	fmt.Fprintf(w, "\n%s: %s (sf %g, seed %d, %d timed reps)\n", r.Workload, pass, r.SF, r.Seed, r.Reps)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tmedian\tunit\tn\tmin\tmax")
	for _, d := range r.defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%.6g\t%.6g\n", d.name, m.Value, m.Unit, m.N, m.Min, m.Max)
	}
	tw.Flush()
	fmt.Fprintf(w, "operations: %d attempted, %d failed; outputs correct: %v\n", r.Attempted, r.Failed, r.Correct)
	if r.FirstErr != "" {
		fmt.Fprintf(w, "first failure: %s\n", r.FirstErr)
	}
}

// compare judges results file b against a, one row per (workload,
// end-to-end metric) and one per layerJudged metric, by the bounds in
// BENCHMARK.json. A row is unresolved when either file's own samples leave
// its median uncertain by more than the bound: the difference cannot be
// told from noise.
func compare(args []string) error {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's contract: metrics, directions, bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: benchmark compare [--spec BENCHMARK.json] a.json b.json")
	}
	fileA, fileB := fs.Arg(0), fs.Arg(1)
	var sp spec
	if err := readJSON(*specPath, &sp); err != nil {
		return err
	}
	var a, b results
	if err := readJSON(fileA, &a); err != nil {
		return err
	}
	if err := readJSON(fileB, &b); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\t%s\t%s\tunit\tb/a\tbound\tverdict\n", fileA, fileB)
	worse := 0
	judge := func(workload string, m specMetric, in func(*workloadResult) map[string]metric) error {
		ma, oka := in(a.Workloads[workload])[m.Name]
		mb, okb := in(b.Workloads[workload])[m.Name]
		if !oka || !okb {
			return fmt.Errorf("%s: metric %s is missing from a results file", workload, m.Name)
		}
		v := verdict(ma, mb, m)
		if v == "worse" {
			worse++
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.4f\t%.2f\t%s\n",
			workload, m.Name, ma.Value, mb.Value, m.Unit, ratio(mb.Value, ma.Value), m.Bound, v)
		return nil
	}
	for _, w := range sp.Workloads {
		if a.Workloads[w.Name] == nil || b.Workloads[w.Name] == nil {
			return fmt.Errorf("workload %s is missing from a results file", w.Name)
		}
		for _, m := range sp.EndToEnd {
			if err := judge(w.Name, m, func(r *workloadResult) map[string]metric { return r.EndToEnd }); err != nil {
				return err
			}
		}
		for _, m := range sp.PerLayer {
			if boundOf, ok := layerJudged[w.Name][m.Name]; ok {
				m.Bound = sp.bound(boundOf)
				if err := judge(w.Name, m, func(r *workloadResult) map[string]metric { return r.PerLayer }); err != nil {
					return err
				}
			}
		}
	}
	tw.Flush()
	if worse > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are worse in %s than in %s", worse, fileB, fileA)
	}
	return nil
}

// verdict compares b against base a for one metric.
func verdict(a, b metric, m specMetric) string {
	if a.uncertainty() > m.Bound || b.uncertainty() > m.Bound {
		return "unresolved"
	}
	// change > 0 means b is worse than a, as a share of a.
	change := ratio(b.Value-a.Value, a.Value)
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	}
	return "same"
}
