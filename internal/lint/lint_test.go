package lint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixtureAnalyzers maps each golden-fixture package under testdata/src to
// the analyzers that must reproduce its want.txt exactly.
var fixtureAnalyzers = map[string][]*Analyzer{
	"maprangefloat": {MapRangeFloat},
	"maprangerand":  {MapRangeRand},
	"rawrand":       {RawRand},
	"rawgo":         {RawGo},
	"floateq":       {FloatEq},
	"errdrop":       {ErrDrop},
	"badignore":     {ErrDrop},
	"tuplecopy":     {TupleCopy},
	"materialize":   {Materialize},
	"detflow":       {DetFlow},
	"viewescape":    {ViewEscape},
	"ctxflow":       {CtxFlow},
	"workerpurity":  {WorkerPurity},
	"staleignore":   {FloatEq},
}

// TestFixtures loads every deliberately-broken package under testdata/src
// and checks that its analyzer reports exactly the findings in want.txt —
// no more (false positives on the legal shapes), no fewer (missed bugs),
// and none at suppressed sites.
func TestFixtures(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != len(fixtureAnalyzers) {
		t.Errorf("testdata/src has %d fixture dirs, fixtureAnalyzers lists %d; keep them in sync", len(dirs), len(fixtureAnalyzers))
	}
	for _, d := range dirs {
		name := d.Name()
		t.Run(name, func(t *testing.T) {
			analyzers, ok := fixtureAnalyzers[name]
			if !ok {
				t.Fatalf("no analyzer registered for fixture %q", name)
			}
			dir := filepath.Join("testdata", "src", name)
			pkgs, err := loader.LoadDir("fixture/"+name, dir)
			if err != nil {
				t.Fatal(err)
			}
			got := formatFindings(Run(pkgs, analyzers))
			want := readWant(t, filepath.Join(dir, "want.txt"))
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("findings mismatch\n got:\n  %s\nwant:\n  %s",
					strings.Join(got, "\n  "), strings.Join(want, "\n  "))
			}
		})
	}
}

// formatFindings renders findings as "basename:line: rule" for comparison
// against want.txt.
func formatFindings(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fmt.Sprintf("%s:%d: %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule)
	}
	sort.Strings(out)
	return out
}

// readWant parses a want.txt: one "file:line: rule" per line.
func readWant(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(string(data), "\n") {
		if l = strings.TrimSpace(l); l != "" {
			lines = append(lines, l)
		}
	}
	sort.Strings(lines)
	return lines
}

// TestRepoClean type-checks the entire module and asserts that every
// analyzer is clean: the invariants the rules encode hold on the real
// tree (with suppressions only at sites whose comments justify them).
// This is the regression test that keeps `make lint` green.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	run := lintModule(t)
	if run.pkgs < 15 {
		t.Fatalf("LoadAll found only %d packages; the module walk is broken", run.pkgs)
	}
	for _, f := range run.findings {
		t.Errorf("%s", f)
	}
}

// TestLintRuntimeBudget asserts the full lint run (module load, call
// graph, taint fixpoint, all twelve rules) stays inside a budget of 30 s
// of CPU time. The interprocedural engine must remain cheap enough to sit
// in `make check` on every change; a blowup here means the CHA resolver or
// the taint fixpoint stopped converging quickly and the framework — not
// the budget — is what needs fixing.
//
// The budget is on the run's own CPU time, this process's and its
// children's (processCPU; the package's tests run one at a time), not on
// the wall clock: `make check`'s -race step runs every package's tests at
// once, and the wall clock counts the time the lint waits for a core. On
// a shared 2-CPU host a -race run measured 23.8 s of wall alone and up to
// 32.5 s beside the other packages, while its CPU time read 24.5 s and
// 24.8 s. Where the platform has no process CPU time, the wall clock
// stands in.
func TestLintRuntimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	const budget = 30 * time.Second
	run := lintModule(t)
	cost, what := run.cpu, "CPU time"
	if run.cpuErr != nil {
		cost, what = run.elapsed, "wall clock"
		t.Logf("no CPU time (%v): budgeting the wall clock", run.cpuErr)
	}
	if cost > budget {
		t.Errorf("full lint run took %s of %s (%s wall), over the %s budget", cost.Round(time.Millisecond), what, run.elapsed.Round(time.Millisecond), budget)
	} else {
		t.Logf("full lint run: %s of %s, %s wall (budget %s)", cost.Round(time.Millisecond), what, run.elapsed.Round(time.Millisecond), budget)
	}
}

// moduleRun is one full lint run over the module: the load, every rule,
// the wall clock they took and the CPU time (processCPU) they used.
type moduleRun struct {
	pkgs     int
	findings []Finding
	elapsed  time.Duration
	cpu      time.Duration
	cpuErr   error
	err      error
}

var (
	moduleOnce sync.Once
	module     moduleRun
)

// lintModule loads and lints the whole module once per test binary, timed,
// and hands every caller that run: loading the module is most of the
// package's test time, and TestRepoClean and TestLintRuntimeBudget assert
// over the same run. Each test still triggers it alone under -run.
func lintModule(t *testing.T) moduleRun {
	t.Helper()
	moduleOnce.Do(func() {
		start := time.Now()
		cpu0, cpuErr := processCPU()
		loader, err := NewLoader(".")
		if err != nil {
			module.err = err
			return
		}
		pkgs, err := loader.LoadAll()
		if err != nil {
			module.err = err
			return
		}
		module.findings = Run(pkgs, All())
		module.elapsed = time.Since(start)
		cpu1, err := processCPU()
		module.cpu, module.cpuErr = cpu1-cpu0, errors.Join(cpuErr, err)
		module.pkgs = len(pkgs)
		Relativize(module.findings, loader.ModuleRoot())
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module
}

// TestAnalyzerSet pins the shipped rule set: twelve analyzers, stable
// names, non-empty docs, and exactly one of Run / RunModule each.
func TestAnalyzerSet(t *testing.T) {
	want := []string{
		"maprange-float", "maprange-rand", "rawrand", "rawgo", "floateq", "errdrop", "tuplecopy", "materialize",
		"detflow", "viewescape", "ctxflow", "workerpurity",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q must have a doc line", a.Name)
		}
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %q must have exactly one of Run and RunModule", a.Name)
		}
	}
}

// TestSuppression covers the directive grammar directly.
func TestSuppression(t *testing.T) {
	cases := []struct {
		d    ignoreDirective
		rule string
		line int
		want bool
	}{
		{ignoreDirective{rules: []string{"floateq"}, line: 10}, "floateq", 10, true},  // same line
		{ignoreDirective{rules: []string{"floateq"}, line: 10}, "floateq", 11, true},  // line below
		{ignoreDirective{rules: []string{"floateq"}, line: 10}, "floateq", 12, false}, // too far
		{ignoreDirective{rules: []string{"floateq"}, line: 10}, "rawgo", 11, false},   // wrong rule
		{ignoreDirective{rules: []string{"floateq", "rawgo"}, line: 10}, "rawgo", 11, true},
	}
	for i, c := range cases {
		if got := c.d.suppresses(c.rule, c.line); got != c.want {
			t.Errorf("case %d: suppresses(%q, %d) = %v, want %v", i, c.rule, c.line, got, c.want)
		}
	}
}
