// Command scbench regenerates the paper's evaluation tables and figures
// (§VI) from the calibrated simulator and the optimizer. Measurements of the
// real engine and the gateway live in benchmark/ (see benchmark/README.md).
//
// Usage:
//
//	scbench [experiment...]
//
// Experiments: fig3, table3, fig9, fig10, fig11, table4, fig12, table5,
// fig13, fig14, all (default: all). fig13/fig14 accept -dags N to control
// the number of generated DAGs per setting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"github.com/shortcircuit-db/sc/internal/bench"
)

func main() {
	dags := flag.Int("dags", 25, "generated DAGs per setting for fig13/fig14")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// A second interrupt terminates immediately: unregister the handler as
	// soon as the first one cancels the context.
	go func() {
		<-ctx.Done()
		stop()
	}()

	experiments := flag.Args()
	if len(experiments) == 0 || (len(experiments) == 1 && experiments[0] == "all") {
		experiments = []string{"fig3", "table3", "fig9", "fig10", "fig11", "table4", "fig12", "table5", "fig13", "fig14"}
	}
	out := os.Stdout
	for _, exp := range experiments {
		if err := ctx.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "scbench: interrupted")
			os.Exit(130)
		}
		start := time.Now()
		var err error
		switch exp {
		case "fig3":
			err = bench.Fig3(out)
		case "table3":
			err = bench.Table3(out)
		case "fig9":
			err = bench.Fig9(out)
		case "fig10":
			err = bench.Fig10(out)
		case "fig11":
			err = bench.Fig11(out)
		case "table4":
			err = bench.Table4(out)
		case "fig12":
			err = bench.Fig12(out)
		case "table5":
			err = bench.Table5(out)
		case "fig13":
			err = bench.Fig13(out, *dags)
		case "fig14":
			err = bench.Fig14(out, *dags)
		default:
			err = fmt.Errorf("unknown experiment %q", exp)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "scbench: %s: %v\n", exp, err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "[%s completed in %v]\n\n", exp, time.Since(start).Round(time.Millisecond))
	}
}
