// Adaptive: the §III-A execution-metadata feedback loop.
//
// Recurring pipelines drift: tables grow, selectivities change. This
// example runs the same MV pipeline across three simulated "days" of data
// growth with a single long-lived Refresher session. Each Refresh call
// executes the current plan, records the observed metadata, and
// re-optimizes for the next day — showing the plan adapting as nodes leave
// the flagged set when their outputs outgrow the Memory Catalog.
//
//	go run ./examples/adaptive
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	sc "github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

func main() {
	var mvs []sc.MV
	for _, n := range tpcds.RealWorkload().Nodes {
		mvs = append(mvs, sc.MV{Name: n.Name, SQL: n.SQL})
	}
	device := sc.DeviceProfile{
		DiskReadBW: 50e6, DiskWriteBW: 30e6, DiskLatency: 2 * time.Millisecond,
		MemReadBW: 10e9, MemWriteBW: 10e9, ComputeScale: 1,
	}

	// One store, one session: ingestion rewrites the base tables in place
	// each day, the NFS-like throttle shapes the refresh traffic.
	inner := sc.NewMemStore()
	store := sc.NewThrottledStore(inner, 50e6, 30e6, 2*time.Millisecond)
	ref, err := sc.New(mvs, store,
		sc.WithMemory(384<<10), // fixed 384KB Memory Catalog across days
		sc.WithDevice(device),  // score model matching the throttled store
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Day 0 has no observations: the first plan sizes every MV at the 1 MB
	// default, more than this budget holds, so day 1 runs unflagged.
	if _, _, err := ref.Optimize(ctx); err != nil {
		log.Fatal(err)
	}

	for day, sf := range []float64{0.5, 1.0, 2.0} {
		// Fresh ingestion at today's data volume.
		ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: sf, Seed: int64(100 + day)})
		if err != nil {
			log.Fatal(err)
		}
		if err := ds.Save(inner, exec.SaveTable); err != nil {
			log.Fatal(err)
		}

		planned := len(ref.Plan().FlaggedIDs())
		res, err := ref.Refresh(ctx) // run today's plan, observe, re-optimize
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("day %d (scale %.1f, %.1f MB data): %2d/%d MVs flagged, refresh %v, peak memory %.1f MB, fallbacks %d\n",
			day+1, sf, float64(ds.TotalBytes())/1e6,
			planned, ref.Graph().Len(),
			res.Total.Round(time.Millisecond), float64(res.PeakMemory)/1e6, res.FallbackWrites)
	}
	fmt.Println("\nDay 1 plans from default size estimates; later days plan from observed")
	fmt.Println("metadata. When data outgrows stale estimates mid-run, the Controller")
	fmt.Println("falls back to disk for outputs that no longer fit — no manual retuning.")
}
