package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// manifest is BENCHMARK.json: the contract the driver checks the benchmark
// against. The program reads units, bounds and the default window length
// from it instead of repeating them, so the file stays the one place where
// a metric's name, unit, direction and bound are declared.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifestPaths are where BENCHMARK.json is looked for: the working
// directory (the contract runs the command from the checkout root) and its
// parent (go test runs in the package directory).
var manifestPaths = []string{"BENCHMARK.json", "../BENCHMARK.json"}

func loadManifest() (*manifest, error) {
	var firstErr error
	for _, path := range manifestPaths {
		raw, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &m, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found (run from the repository root): %w", firstErr)
}

func (m *manifest) decl(name string) (metricDecl, bool) {
	for _, list := range [][]metricDecl{m.EndToEnd, m.PerLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDecl{}, false
}

func (m *manifest) unit(name string) string {
	d, _ := m.decl(name)
	return d.Unit
}

// printHost records where the numbers were taken: they are this host's,
// and a comparison across hosts compares hosts.
func printHost(w io.Writer) {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(w, "host: cpu %q, cpus %d, GOMAXPROCS %d, %s %s/%s, %d closed-loop clients\n",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, clients)
}
