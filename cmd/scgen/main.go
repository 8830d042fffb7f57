// Command scgen generates test inputs: TPC-DS-like base-table data
// directories for the real engine, and synthetic DAG workload specs (in
// scopt's JSON format) from the §VI-H generator.
//
// Usage:
//
//	scgen data -dir ./data -sf 1.0 -seed 42
//	scgen dag  -nodes 100 -hw 1.0 -outdeg 4 -stddev 1 -seed 7 > wl.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/tpcds"
	"github.com/shortcircuit-db/sc/internal/wlgen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "data":
		genData(os.Args[2:])
	case "dag":
		genDAG(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: scgen data|dag [flags]")
	os.Exit(2)
}

func genData(args []string) {
	fs := flag.NewFlagSet("data", flag.ExitOnError)
	dir := fs.String("dir", "./scdata", "output directory")
	sf := fs.Float64("sf", 1.0, "scale factor")
	seed := fs.Int64("seed", 42, "generator seed")
	_ = fs.Parse(args)

	ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: *sf, Seed: *seed})
	if err != nil {
		fail(err)
	}
	store, err := storage.NewFSStore(*dir)
	if err != nil {
		fail(err)
	}
	if err := ds.Save(store, exec.SaveTable); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %d tables (%.1f MB uncompressed) to %s\n",
		len(ds.Tables), float64(ds.TotalBytes())/1e6, *dir)
}

func genDAG(args []string) {
	fs := flag.NewFlagSet("dag", flag.ExitOnError)
	nodes := fs.Int("nodes", 100, "node count")
	hw := fs.Float64("hw", 1.0, "height/width ratio")
	outdeg := fs.Int("outdeg", 4, "max outdegree")
	stddev := fs.Float64("stddev", 1.0, "stage node count stddev")
	seed := fs.Int64("seed", 7, "generator seed")
	memory := fs.Int64("memory", 2<<30, "memory budget to embed")
	_ = fs.Parse(args)

	gen, err := wlgen.Generate(wlgen.Params{
		Nodes: *nodes, HeightWidth: *hw, MaxOutdegree: *outdeg, StageStdDev: *stddev, Seed: *seed,
	})
	if err != nil {
		fail(err)
	}
	type jsonNode struct {
		Name  string  `json:"name"`
		Size  int64   `json:"size"`
		Score float64 `json:"score"`
	}
	out := struct {
		Nodes          []jsonNode  `json:"nodes"`
		Edges          [][2]string `json:"edges"`
		Memory         int64       `json:"memory"`
		EstimateScores bool        `json:"estimate_scores"`
		Seed           int64       `json:"seed,omitempty"`
	}{Memory: *memory, EstimateScores: true, Seed: *seed}
	g := gen.Workload.G
	for i, n := range gen.Workload.Nodes {
		out.Nodes = append(out.Nodes, jsonNode{Name: n.Name, Size: n.OutputBytes})
		for _, c := range g.Children(dag.NodeID(i)) {
			out.Edges = append(out.Edges, [2]string{n.Name, g.Name(c)})
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "scgen:", err)
	os.Exit(1)
}
