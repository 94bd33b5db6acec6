// Command servebench is the LITE serving benchmark. It boots a serve.Server
// in-process the way cmd/liteserve does, drives it over loopback HTTP with
// pkg/client under Poisson open-loop arrivals, checks every answer, and
// prints every metric of the chosen workload by name and unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a traced
// run replays a sample of requests at each layer boundary and reports the
// per-layer split instead. README.md describes the workloads and metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash servebench/run.sh --workload cold-model --seed 1 --seconds 24 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: hot-keys or cold-model")
	seed := flag.Int64("seed", 1, "seed for the generated traffic (arrival times and key draws)")
	seconds := flag.Int("seconds", 24, "measured seconds per run, split between the nominal-rate phase and the rate search")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer split instead of the end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build/tmp", "directory for the server's WAL and snapshot files")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "servebench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	res, err := runWorkload(w, runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		workdir: *workdir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
	if !res.Correct {
		// The result line still prints (it names the failed count), but an
		// invalid answer fails the command.
		os.Exit(1)
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult prints every metric as "metric <name> = <value> <unit>", then
// the JSON result as the last line.
func printResult(f io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(f, "metric %-30s = %.6g %s\n", n, m.Value, m.Unit)
	}
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no NaN/Inf; a metric that could not be measured is a
			// harness bug, reported as such rather than as a number.
			fmt.Fprintf(os.Stderr, "servebench: metric %s is not finite (%v)\n", n, m.Value)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, string(line))
}
