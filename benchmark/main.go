// Command benchmark is relest's one performance benchmark: it boots the
// real serving stack in this process (relestd, or a coordinator over shard
// relestds) on loopback TCP, drives five named workloads with two
// closed-loop clients on two connections, verifies every answer, and
// prints every metric by name with its unit. End-to-end metrics come from
// an untraced run; a separate traced run times the calls into each layer's
// public functions and writes the spans out. See README.md beside this
// file, and BENCHMARK.json at the repository root for the contract.
//
// Usage:
//
//	go run ./benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1|both] [-repeat n] [-out file]
//	go run ./benchmark -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// outDir receives everything a run writes: trace files, result files and
// the stream workload's snapshot directories. It sits inside the
// benchmark's own directory, so a run never writes outside its checkout.
const outDir = "benchmark/out"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: all, or one of BENCHMARK.json's workloads")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same data, pools and request order")
	seconds := fs.Float64("seconds", 0, "length of the measured window in seconds (default: BENCHMARK.json's run_seconds)")
	trace := fs.String("trace", "both", "0: the untraced run (end-to-end metrics); 1: the traced run (per-layer metrics); both")
	out := fs.String("out", "", "also write the results to this JSON file, for -compare")
	repeat := fs.Int("repeat", 1, "run this many times, with seeds seed..seed+n-1, and print each end-to-end metric's spread")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments, against BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	man, err := loadManifest()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files, got %d arguments", fs.NArg())
		}
		return compareFiles(os.Stdout, man, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}
	var selected []*spec
	if *name == "all" {
		selected = workloads
	} else if w := workloadByName(*name); w != nil {
		selected = []*spec{w}
	} else {
		return fmt.Errorf("unknown workload %q", *name)
	}
	var modes []bool // traced?
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("-trace takes 0, 1 or both, got %q", *trace)
	}
	ctx := context.Background()
	printHost(os.Stdout)
	var results []*result
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range selected {
			for _, traced := range modes {
				var res *result
				if traced {
					res, err = traceWorkload(ctx, w, *seed+int64(rep), *seconds)
				} else {
					res, err = runWorkload(ctx, w, *seed+int64(rep), *seconds)
				}
				if err != nil {
					return err
				}
				if err := res.finite(); err != nil {
					return err
				}
				printResult(os.Stdout, man, res)
				results = append(results, res)
			}
		}
	}
	if *repeat > 1 {
		printSpread(os.Stdout, man, results)
	}
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			return err
		}
	}
	// The contract's last line: one JSON object for the run (the last one,
	// when several workloads or both modes ran).
	last := results[len(results)-1]
	line, err := json.Marshal(contractLine(man, last))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	for _, res := range results {
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed verification", res.Workload, res.Failed, res.Attempted)
		}
	}
	return nil
}

// contractOutput is the benchmark contract's result object.
type contractOutput struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractLine(man *manifest, res *result) contractOutput {
	out := contractOutput{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractMetric{}}
	for name, v := range res.Metrics {
		out.Metrics[name] = contractMetric{Value: v, Unit: man.unit(name)}
	}
	return out
}

// printResult prints one run's metrics by name, with units.
func printResult(w io.Writer, man *manifest, res *result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d): attempted %d, failed %d\n", res.Workload, mode, res.Seed, res.Attempted, res.Failed)
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, res.Metrics[name], man.unit(name))
	}
	for _, name := range sortedKeys(res.Info) {
		fmt.Fprintf(w, "  (%s %.6g)\n", name, res.Info[name])
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeResults(path string, results []*result) error {
	raw, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
