package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runKey groups results that measure the same thing.
type runKey struct {
	workload string
	traced   bool
}

// valuesByMetric collects, per workload and mode, every run's value of
// every metric.
func valuesByMetric(results []*result) map[runKey]map[string][]float64 {
	out := map[runKey]map[string][]float64{}
	for _, r := range results {
		k := runKey{r.Workload, r.Traced}
		if out[k] == nil {
			out[k] = map[string][]float64{}
		}
		for _, name := range sortedKeys(r.Metrics) {
			out[k][name] = append(out[k][name], r.Metrics[name])
		}
	}
	return out
}

func readResults(path string) ([]*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []*result
	if err := json.Unmarshal(raw, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction: positive means worse.
func worsening(d metricDecl, a, b float64) float64 {
	change := (b - a) / math.Abs(a)
	if d.Better == "higher" {
		return -change
	}
	return change
}

// classify applies the repo's comparison rule to one end-to-end metric on
// one workload: a and b are the parent's and the change's runs.
func classify(d metricDecl, a, b []float64) string {
	worse := worsening(d, median(a), median(b))
	if worse > d.Bound {
		return "regressed"
	}
	spread := math.Max(iqrShare(a), iqrShare(b))
	if spread > d.Bound { // NaN (a single run per side) compares false: no spread is known
		// Too noisy to call unchanged — unless every run of the change
		// reads better than every run of the parent.
		for _, x := range a {
			for _, y := range b {
				if worsening(d, x, y) >= 0 {
					return "unresolved"
				}
			}
		}
		return "improved"
	}
	if worse < -d.Bound {
		return "improved"
	}
	return "within-bound"
}

// compareFiles prints one row per (workload, metric): both medians, the
// change, and for end-to-end metrics the bound and the verdict. A is the
// parent, B the change.
func compareFiles(w io.Writer, man *manifest, pathA, pathB string) error {
	resA, err := readResults(pathA)
	if err != nil {
		return err
	}
	resB, err := readResults(pathB)
	if err != nil {
		return err
	}
	a, b := valuesByMetric(resA), valuesByMetric(resB)
	keys := make([]runKey, 0, len(a))
	for k := range a {
		if b[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].traced != keys[j].traced {
			return !keys[i].traced
		}
		return keys[i].workload < keys[j].workload
	})
	regressed := 0
	fmt.Fprintf(w, "%-12s %-34s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, k := range keys {
		for _, name := range sortedKeys(a[k]) {
			if b[k][name] == nil {
				continue
			}
			d, _ := man.decl(name)
			ma, mb := median(a[k][name]), median(b[k][name])
			change := 100 * (mb - ma) / math.Abs(ma)
			if k.traced {
				fmt.Fprintf(w, "%-12s %-34s %14.6g %14.6g %+8.1f%%\n", k.workload, name, ma, mb, change)
				continue
			}
			verdict := classify(d, a[k][name], b[k][name])
			if verdict == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-12s %-34s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n", k.workload, name, ma, mb, change, 100*d.Bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d end-to-end metrics regressed beyond their bounds", regressed)
	}
	return nil
}

// printSpread prints, for repeated runs, each metric's median and its
// spread (inter-quartile range over median) beside the bound it must stay
// within — the check that says whether the benchmark can resolve a change
// of the size its bounds claim.
func printSpread(w io.Writer, man *manifest, results []*result) {
	byKey := valuesByMetric(results)
	fmt.Fprintf(w, "\n%-12s %-34s %5s %14s %8s %7s\n", "workload", "metric", "runs", "median", "spread", "bound")
	for _, spec := range workloads {
		vals := byKey[runKey{spec.name, false}]
		for _, d := range man.EndToEnd {
			xs := vals[d.Name]
			if len(xs) < 2 {
				continue
			}
			note := ""
			if spread := iqrShare(xs); spread > d.Bound {
				note = "  wider than the bound"
			} else if spread > d.Bound/3 {
				note = "  above a third of the bound"
			}
			fmt.Fprintf(w, "%-12s %-34s %5d %14.6g %7.2f%% %6.0f%%%s\n", spec.name, d.Name, len(xs), median(xs), 100*iqrShare(xs), 100*d.Bound, note)
		}
	}
}
