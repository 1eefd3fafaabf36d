package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI invokes run with the given args and returns its stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

// TestGoldenOutput pins the CLI's byte-exact output on the committed
// fixtures at a fixed seed, for serial and parallel evaluation. Any change
// to an estimate, to sampling, or to the output format shows up as a diff
// against the golden file. (-exact and -metrics are deliberately absent:
// they print wall-clock times.)
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		name   string
		golden string
		args   []string
	}{
		{
			name:   "count-join",
			golden: "testdata/count_join.golden",
			args: []string{
				"-rel", "orders=testdata/orders.csv",
				"-rel", "customers=testdata/customers.csv",
				"-query", "count(join(orders, customers, on cust_id = id))",
				"-seed", "42",
			},
		},
		{
			name:   "sum-select",
			golden: "testdata/sum_select.golden",
			args: []string{
				"-rel", "orders=testdata/orders.csv",
				"-query", "sum(select(orders, amount > 100), amount)",
				"-seed", "42",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []string{"1", "4"} {
				got := runCLI(t, append(tc.args, "-workers", workers)...)
				if got != string(want) {
					t.Errorf("workers=%s output differs from %s:\ngot:\n%s\nwant:\n%s",
						workers, tc.golden, got, want)
				}
			}
		})
	}
}

// TestMetricsOutput checks the -metrics exposition: the file must contain
// parseable Prometheus text (TYPE lines, the advertised families) followed
// by a valid JSON snapshot, and the flag must not change the estimate.
func TestMetricsOutput(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.out")
	trace := filepath.Join(dir, "trace.out")
	args := []string{
		"-rel", "orders=testdata/orders.csv",
		"-rel", "customers=testdata/customers.csv",
		"-query", "count(join(orders, customers, on cust_id = id))",
		"-seed", "42", "-workers", "4",
		"-metrics", metrics, "-trace", trace,
	}
	got := runCLI(t, args...)
	want, err := os.ReadFile("testdata/count_join.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("-metrics changed the stdout output:\n%s", got)
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	jsonStart := strings.Index(text, "\n{")
	if jsonStart < 0 {
		t.Fatalf("no JSON snapshot after the Prometheus text:\n%s", text)
	}
	prom, jsonPart := text[:jsonStart+1], text[jsonStart+1:]

	// Prometheus text: every non-comment line is "name[{labels}] value",
	// and the families the issue promises are present.
	for _, line := range strings.Split(strings.TrimSpace(prom), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("unexpected comment line %q", line)
			}
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("unparseable sample line %q", line)
		}
	}
	for _, family := range []string{
		"relest_plan_built_total",
		"relest_pool_workers",
		"relest_pool_busy_seconds_total",
		"relest_samples_rows_total",
		"relest_sampling_units_drawn_total",
		"relest_term_seconds",
		"relest_variance_method_total",
	} {
		if !strings.Contains(prom, family) {
			t.Errorf("Prometheus text missing family %q", family)
		}
	}

	var snap struct {
		Counters   map[string]float64        `json:"counters"`
		Gauges     map[string]float64        `json:"gauges"`
		Histograms map[string]map[string]any `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(jsonPart), &snap); err != nil {
		t.Fatalf("JSON snapshot does not parse: %v\n%s", err, jsonPart)
	}
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Errorf("JSON snapshot is empty: %s", jsonPart)
	}
	if v := snap.Counters[`relest_samples_rows_total{rel="orders"}`]; v != 50 {
		t.Errorf("samples rows for orders = %v, want 50", v)
	}

	tr, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tr), "relest_estimate") || !strings.Contains(string(tr), "relest_term") {
		t.Errorf("trace missing estimate/term spans:\n%s", tr)
	}
}

// TestFlagValidation pins the CLI contract: unknown flags and stray
// positional arguments fail with a usage error instead of being
// silently ignored (all inputs are flags; a stray word is a typo).
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-no-such-flag"}},
		{"stray arg", []string{"estimate"}},
		{"flag then stray arg", []string{"-seed", "42", "extra"}},
		{"negative workers", []string{"-workers", "-3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err == nil {
				t.Fatalf("run(%v) succeeded; want a usage error", tc.args)
			}
		})
	}
}
