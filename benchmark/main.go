// Command benchmark is the S/C benchmark: four refresh workloads, their
// end-to-end metrics from an untraced pass and per-layer metrics from a
// traced pass. See README.md; BENCHMARK.json at the repository root names
// the command, the workloads, the metrics and their regression bounds.
//
//	benchmark --workload cpu-bound --seed 7 --seconds 20 --trace 0
//	    one pass of one workload; the last line of stdout is the result
//	benchmark [--quick] [--out dir]
//	    every workload, both passes, each in its own child process;
//	    writes dir/results.json and dir/trace.json
//	benchmark compare a.json b.json
//	    judge two results.json files by the bounds in BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workloads in the order they run.
var workloads = []string{"io-bound", "cpu-bound", "compressed", "gateway-small"}

const (
	// quickSF and friends size the --quick run bench_test.go uses.
	quickSF     = 2
	quickReps   = 2
	quickRounds = 10
	// minPairs and minRounds are what a time-boxed window measures at least.
	minPairs  = 3
	minRounds = 10
	// schemaVersion of results.json.
	schemaVersion = 1
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64 // timed window; ignored when reps is set
	trace    bool
	reps     int // timed pairs, or rounds per gateway client (0 = time-boxed)
	quick    bool
	out      string
	scratch  string
}

// until returns the end test of a timed loop: after fixed iterations when
// fixed > 0 (a run sized by --reps or --quick), otherwise after at least
// min iterations and secs seconds.
func until(fixed, min int, secs float64) func(n int, start time.Time) bool {
	return func(n int, start time.Time) bool {
		if fixed > 0 {
			return n >= fixed
		}
		return n >= min && time.Since(start).Seconds() >= secs
	}
}

// sf is a workload's scale factor: full, or quickSF when quick.
func (o options) sf(full float64) float64 {
	if o.quick {
		return quickSF
	}
	return full
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one pass of this workload in this process (default: all, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 42, "seed of the generated inputs (tpcds.GenConfig.Seed, wlgen.Params.Seed)")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.IntVar(&o.reps, "reps", 0, "timed {S/C, naive} pairs per batch workload, rounds per gateway client, instead of --seconds")
	fs.BoolVar(&o.quick, "quick", false, "sf 2, 2 pairs, 10 gateway rounds: a smoke run, not a measurement")
	fs.StringVar(&o.out, "out", "", "directory for results.json and trace.json (default .bench_build/results when running all workloads)")
	fs.StringVar(&o.scratch, "scratch", filepath.Join(".bench_build", "tmp"), "directory for the FSStore replay's files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace is 0 or 1")
	}
	o.trace = *trace == 1
	if o.quick {
		o.reps = quickReps
		if o.workload == "gateway-small" {
			o.reps = quickRounds
		}
	}
	return o, nil
}

func main() {
	// Load comes from this one process and never from more than two
	// threads of it: the sandbox has two cores.
	runtime.GOMAXPROCS(2)
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the result has been printed.
var errIncorrect = errors.New("an operation failed or an output was wrong")

func run(args []string) error {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:])
	}
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.workload == "" {
		return runAll(o)
	}
	res, err := runWorkload(context.Background(), o)
	if err != nil {
		return err
	}
	printResult(os.Stderr, res)
	if o.out != "" {
		if err := writeJSON(filepath.Join(o.out, passFile(res.Workload, res.Traced)), res); err != nil {
			return err
		}
	}
	// The contract's result: the last line of standard output.
	type contractMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]contractMetric{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = contractMetric{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !res.Correct {
		return fmt.Errorf("%s: %w: %s", res.Workload, errIncorrect, res.FirstErr)
	}
	return nil
}

// runWorkload runs one pass of one workload in this process.
func runWorkload(ctx context.Context, o options) (*result, error) {
	cfg, batch := batchWorkloads[o.workload]
	cfg.sf = o.sf(cfg.sf)
	var res *result
	var err error
	switch {
	case batch && o.trace:
		res, err = traceBatch(ctx, o.workload, cfg, o)
	case batch:
		res, err = runBatch(ctx, o.workload, cfg, o)
	case o.workload == "gateway-small" && o.trace:
		res, err = traceGateway(ctx, o.workload, o)
	case o.workload == "gateway-small":
		res, err = runGateway(ctx, o.workload, o)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	for name, m := range res.Metrics {
		if !finite(m.Value) {
			return nil, fmt.Errorf("%s: metric %s is not finite", o.workload, name)
		}
	}
	return res, nil
}

func passFile(workload string, traced bool) string {
	if traced {
		return workload + ".layers.json"
	}
	return workload + ".e2e.json"
}

// header records where and how a results.json was measured.
type header struct {
	Schema     int    `json:"schema"`
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Seed       int64  `json:"seed"`
	Quick      bool   `json:"quick"`
}

// results is the shape of results.json.
type results struct {
	header
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	SF       float64           `json:"sf"`
	Reps     int               `json:"reps"`
	Correct  bool              `json:"correct"`
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer"`
}

// gitSHA is the revision the binary was built from, when the build ran
// inside a git checkout.
func gitSHA() string {
	sha, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				sha = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return sha + dirty
}

// runAll runs every workload, untraced then traced, one child process per
// pass so that heap state and peak RSS belong to one workload, and merges
// what the children wrote.
func runAll(o options) error {
	if o.out == "" {
		o.out = filepath.Join(".bench_build", "results")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := results{
		header: header{
			Schema: schemaVersion, GitSHA: gitSHA(), GoVersion: runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Seed: o.seed, Quick: o.quick,
		},
		Workloads: map[string]*workloadResult{},
	}
	traces := map[string][]span{}
	incorrect := false
	for _, w := range workloads {
		wr := &workloadResult{Correct: true}
		all.Workloads[w] = wr
		for _, traced := range []bool{false, true} {
			args := []string{
				"--workload", w, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds),
				"--reps", fmt.Sprint(o.reps), "--out", o.out, "--scratch", o.scratch, "--trace", "0",
			}
			if traced {
				args[len(args)-1] = "1"
			}
			if o.quick {
				args = append(args, "--quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr // the child's table; its stdout is the contract line
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					return fmt.Errorf("%s: %w", w, err)
				}
				incorrect = true
			}
			var pass result
			if err := readJSON(filepath.Join(o.out, passFile(w, traced)), &pass); err != nil {
				return fmt.Errorf("%s: child left no result: %w", w, err)
			}
			wr.Correct = wr.Correct && pass.Correct
			if traced {
				wr.PerLayer = pass.Metrics
				traces[w] = pass.Spans
			} else {
				wr.SF, wr.Reps, wr.EndToEnd = pass.SF, pass.Reps, pass.Metrics
			}
		}
	}
	if err := writeJSON(filepath.Join(o.out, "results.json"), all); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(o.out, "trace.json"), traces); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "\nwrote %s and %s\n", filepath.Join(o.out, "results.json"), filepath.Join(o.out, "trace.json"))
	if incorrect {
		return errIncorrect
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
