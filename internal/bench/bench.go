// Package bench implements the experiment harness: deterministic workload
// construction, trial runners, error/coverage metrics, and table rendering
// for every experiment in DESIGN.md (T1–T7, F1–F4). The cmd/experiments
// binary and the repository-root benchmarks are thin wrappers around this
// package, so the tables in EXPERIMENTS.md are regenerable from one place.
package bench

import (
	"context"
	"fmt"
	"strings"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/stats"
)

// sampleCount estimates COUNT(e) from the sample tier alone: the
// experiments measure the paper's estimator, never a sketch answer.
func sampleCount(e *algebra.Expr, syn *estimator.Synopsis, opts estimator.Options) (estimator.Estimate, error) {
	h := estimator.NewEstimator(syn, estimator.WithOptions(opts), estimator.WithTierPolicy(estimator.TierSampleOnly))
	res, err := h.Count(context.Background(), estimator.Request{Expr: e})
	return res.Estimate, err
}

// Table is one experiment's result in row/column form, mirroring the
// corresponding table or figure of the paper's evaluation.
type Table struct {
	ID      string // experiment id, e.g. "T2" or "F1"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	return b.String()
}

// Plain renders the table with aligned columns for terminals.
func (t *Table) Plain() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len([]rune(c))
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len([]rune(c)) > width[i] {
				width[i] = len([]rune(c))
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", width[i]+2, c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// ErrorStats aggregates relative errors and signed bias across trials.
type ErrorStats struct {
	abs  stats.Welford // |est−act|/act
	sign stats.Welford // (est−act)/act
}

// Observe records one trial.
func (e *ErrorStats) Observe(est, actual float64) {
	e.abs.Add(stats.RelativeError(est, actual))
	//lint:ignore floateq division guard: only an exactly-zero actual makes the signed error undefined
	if actual != 0 {
		e.sign.Add((est - actual) / actual)
	}
}

// ARE returns the average relative error in percent.
func (e *ErrorStats) ARE() float64 { return 100 * e.abs.Mean() }

// Bias returns the mean signed relative deviation in percent — near zero
// for an unbiased estimator.
func (e *ErrorStats) Bias() float64 { return 100 * e.sign.Mean() }

// N returns the number of trials observed.
func (e *ErrorStats) N() int64 { return e.abs.N() }

// Coverage counts how often confidence intervals bracket the truth.
type Coverage struct {
	hits, total int
	width       stats.Welford
}

// Observe records one CI against the true value.
func (c *Coverage) Observe(lo, hi, actual float64) {
	c.total++
	if lo <= actual && actual <= hi {
		c.hits++
	}
	c.width.Add(hi - lo)
}

// Rate returns the empirical coverage in percent.
func (c *Coverage) Rate() float64 {
	if c.total == 0 {
		return 0
	}
	return 100 * float64(c.hits) / float64(c.total)
}

// MeanWidth returns the average CI width.
func (c *Coverage) MeanWidth() float64 { return c.width.Mean() }

// Pct formats a percentage with two decimals.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", v) }

// Num formats a float compactly.
func Num(v float64) string {
	switch {
	//lint:ignore floateq formatting dispatch: exactly-zero prints as "0", nothing numerical branches on this
	case v == 0:
		return "0"
	case v >= 1e6 || v <= -1e6:
		return fmt.Sprintf("%.3g", v)
	//lint:ignore floateq integrality test: exact round-trip through int64 is the intended check
	case v == float64(int64(v)):
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Scale selects experiment sizes. Quick keeps unit-test and benchmark
// runtime in seconds; Full reproduces the EXPERIMENTS.md tables.
type Scale struct {
	Quick bool
}

// pick returns q under Quick and f otherwise.
func (s Scale) pick(q, f int) int {
	if s.Quick {
		return q
	}
	return f
}
