// Command relest estimates COUNT, SUM, AVG, GROUP BY and DISTINCT queries
// over CSV relations from small random samples, the way the CASE-DB front
// end would: load relations, parse a query, draw a synopsis, and report
// the estimate with its confidence interval — optionally alongside the
// exact answer for validation.
//
// Usage:
//
//	relest -rel orders=orders.csv -rel customers=customers.csv \
//	       -fraction 0.05 \
//	       -query "count(join(orders, customers, on cust_id = id))"
//
//	relest -rel emp=emp.csv -query "distinct(emp.dept)" -method jackknife
//	relest -rel emp=emp.csv -query "avg(select(emp, age > 50), salary)"
//	relest -rel emp=emp.csv -query "group(emp, dept)"
//
// Queries use the functional language documented in internal/query:
// count/sum/avg/group(...) over
// select/project/join/product/union/intersect/except, plus
// distinct(R.col, ...). Pass -exact to also compute the true answer,
// -target 0.05 for double sampling to a ±5% goal, or -deadline 50ms for a
// time-budgeted answer. Sampling designs: -page-size 100 samples whole
// pages (cluster sampling), -stratify rel=column draws a stratified sample
// of that relation. Plain count queries may opt into the tiered planner
// with -tier auto (sketch-first with per-term escalation) or -tier sketch,
// and -precision 0.05 sets the sketch acceptance band; the default
// -tier sample keeps the legacy byte-identical output.
//
// Observability: -metrics PATH writes the run's metrics on exit as
// Prometheus text followed by a JSON snapshot ("-" = stderr); -trace PATH
// writes the span tree (what took how long, nested). Neither flag changes
// the estimate: instrumentation is passive and the engine is bit-identical
// with it on or off.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/obs"
	"relest/internal/parallel"
	"relest/internal/query"
	"relest/internal/relation"
	"relest/internal/sampling"
)

// relFlags accumulates repeated -rel name=path flags.
type relFlags map[string]string

func (r relFlags) String() string { return fmt.Sprint(map[string]string(r)) }

func (r relFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	if _, dup := r[name]; dup {
		return fmt.Errorf("relation %q given twice", name)
	}
	r[name] = path
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relest:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("relest", flag.ContinueOnError)
	rels := relFlags{}
	fs.Var(rels, "rel", "relation as name=path.csv (repeatable)")
	queryText := fs.String("query", "", "query, e.g. count(join(R, S, on a = a))")
	fraction := fs.Float64("fraction", 0.05, "sampling fraction per relation")
	minSample := fs.Int("min-sample", 50, "minimum sample size per relation")
	seed := fs.Int64("seed", 1, "random seed (estimates are reproducible per seed)")
	confidence := fs.Float64("confidence", 0.95, "confidence level for the interval")
	exact := fs.Bool("exact", false, "also compute the exact answer for comparison")
	target := fs.Float64("target", 0, "double sampling: target relative error (e.g. 0.05); 0 disables")
	deadline := fs.Duration("deadline", 0, "deadline mode: grow samples until this budget expires; 0 disables")
	method := fs.String("method", "jackknife", "distinct estimator: goodman|scale-up|sample-d|jackknife|gee")
	pageSize := fs.Int("page-size", 0, "page-level sampling: rows per page (0 = tuple-level SRSWOR)")
	stratify := fs.String("stratify", "", "stratified sampling as rel=column (proportional allocation by column value)")
	workers := fs.Int("workers", 0, "evaluation goroutines (0 = all CPUs, 1 = serial); estimates are identical for every setting")
	tier := fs.String("tier", "sample", "synopsis tiers for plain count queries: auto (sketch first, escalate per term), sketch (sketch only), sample (exact legacy path)")
	precision := fs.Float64("precision", 0, "target relative CI half-width for accepting a sketch-tier answer (0 = default 0.1); implies -tier auto unless one is given")
	metricsOut := fs.String("metrics", "", `write metrics on exit (Prometheus text + JSON snapshot) to this file; "-" = stderr`)
	traceOut := fs.String("trace", "", `write the span trace on exit to this file; "-" = stderr`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected argument %q (all inputs are flags)", fs.Arg(0))
	}
	if *workers < 0 {
		fs.Usage()
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	parallel.SetWorkers(*workers)

	// Observability is opt-in: the recorder stays nil (a no-op in the
	// engine) unless -metrics or -trace asks for output.
	var collector *obs.Collector
	var rec obs.Recorder
	if *metricsOut != "" || *traceOut != "" {
		collector = obs.NewCollector()
		if *traceOut != "" {
			collector.EnableTrace()
		}
		rec = collector
		sampling.SetRecorder(collector)
		defer sampling.SetRecorder(nil)
	}
	defer func() {
		if ferr := flushObs(collector, *metricsOut, *traceOut); ferr != nil && err == nil {
			err = ferr
		}
	}()

	if len(rels) == 0 {
		return fmt.Errorf("no relations; pass at least one -rel name=path.csv")
	}
	if *queryText == "" {
		return fmt.Errorf("no query; pass -query")
	}

	cat := algebra.MapCatalog{}
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := rels[name]
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		r, err := relation.ImportCSV(name, f, nil)
		cerr := f.Close()
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
		cat[name] = r
		fmt.Fprintf(stdout, "loaded %s: %d rows, schema %s\n", name, r.Len(), r.Schema())
	}

	st, err := query.Parse(*queryText, query.CatalogSchemas{Cat: cat})
	if err != nil {
		return err
	}

	tierPolicy, err := estimator.ParseTierPolicy(*tier)
	if err != nil {
		return err
	}
	// The tier planner answers plain counts only; -tier sample (the
	// default) keeps every other query shape on its legacy path.
	tiered := (tierPolicy != estimator.TierDefault && tierPolicy != estimator.TierSampleOnly) || *precision > 0
	if tiered && (st.IsDistinct() || st.Agg != "count" || *deadline > 0 || *target > 0) {
		return fmt.Errorf("-tier/-precision apply to plain count queries only")
	}

	stratRel, stratCol := "", ""
	if *stratify != "" {
		var ok bool
		stratRel, stratCol, ok = strings.Cut(*stratify, "=")
		if !ok {
			return fmt.Errorf("-stratify wants rel=column, got %q", *stratify)
		}
		if _, known := cat[stratRel]; !known {
			return fmt.Errorf("-stratify relation %q not loaded", stratRel)
		}
	}

	if collector != nil {
		bytes := 0
		for _, name := range names {
			bytes += cat[name].Bytes()
		}
		collector.Set(obs.MetricRelationBytes, float64(bytes))
	}

	rng := sampling.NewSource(*seed).Rand(0)
	syn := estimator.NewSynopsis()
	// Draw in sorted-name order: sampling consumes a shared stream, so
	// map-order iteration would make the estimate depend on Go's
	// randomized map walk rather than on -seed alone.
	for _, name := range names {
		r := cat[name]
		n := int(*fraction * float64(r.Len()))
		if n < *minSample {
			n = *minSample
		}
		if n > r.Len() {
			n = r.Len()
		}
		switch {
		case r.Name() == stratRel:
			pos := r.Schema().ColumnIndex(stratCol)
			if pos < 0 {
				return fmt.Errorf("-stratify column %q not in relation %q", stratCol, stratRel)
			}
			if err := syn.AddDrawnStratified(r, func(row relation.Row) int {
				return int(row.Value(pos).Hash())
			}, n, rng); err != nil {
				return err
			}
			got, _ := syn.SampleSize(r.Name())
			fmt.Fprintf(stdout, "sampled %s: %d of %d rows (stratified by %s)\n", r.Name(), got, r.Len(), stratCol)
		case *pageSize > 0:
			pages := (n + *pageSize - 1) / *pageSize
			maxPages := (r.Len() + *pageSize - 1) / *pageSize
			if pages > maxPages {
				pages = maxPages
			}
			if err := syn.AddDrawnPages(r, *pageSize, pages, rng); err != nil {
				return err
			}
			got, _ := syn.SampleSize(r.Name())
			fmt.Fprintf(stdout, "sampled %s: %d rows in %d pages of %d\n", r.Name(), got, pages, *pageSize)
		default:
			if err := syn.AddDrawn(r, n, rng); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "sampled %s: %d of %d rows\n", r.Name(), n, r.Len())
		}
	}

	if st.IsDistinct() {
		m, err := distinctMethod(*method)
		if err != nil {
			return err
		}
		got, err := estimator.Distinct(syn, st.DistinctRel, st.DistinctCols, m)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ndistinct estimate (%s): %.1f\n", m, got)
		if *exact {
			e, err := algebra.Project(algebra.BaseOf(cat[st.DistinctRel]), st.DistinctCols...)
			if err != nil {
				return err
			}
			actual, err := algebra.Count(e, cat)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "exact distinct:          %d\n", actual)
		}
		return nil
	}

	opts := estimator.Options{Confidence: *confidence, Workers: *workers, Recorder: rec}
	if st.Agg == "avg" {
		// Only the three point values of an AVG are printed; a variance
		// pass over the SUM and the COUNT would be work nobody reads.
		opts.Variance = estimator.VarNone
	}
	// Every plain query goes through one handle; -tier sample (the default,
	// and the only policy group/sum/avg accept) pins the sample-only path
	// bit for bit, so the output is byte-identical to earlier releases.
	policy := tierPolicy
	if !tiered {
		policy = estimator.TierSampleOnly
	}
	h := estimator.NewEstimator(syn,
		estimator.WithOptions(opts),
		estimator.WithTierPolicy(policy),
		estimator.WithPrecision(*precision))
	ctx := context.Background()
	req := estimator.Request{Expr: st.Expr, Col: st.AggCol}
	if st.Agg == "group" {
		groups, _, err := h.GroupCount(ctx, req)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ntop groups by estimated COUNT(*) GROUP BY %s:\n", st.AggCol)
		limit := 15
		for i, g := range groups {
			if i >= limit {
				fmt.Fprintf(stdout, "  ... and %d more groups\n", len(groups)-limit)
				break
			}
			fmt.Fprintf(stdout, "  %-12v %12.1f\n", g.Value, g.Count)
		}
		return nil
	}
	if st.Agg == "sum" || st.Agg == "avg" {
		if *deadline > 0 || *target > 0 {
			return fmt.Errorf("sum/avg queries support plain estimation only (no -deadline/-target)")
		}
		switch st.Agg {
		case "sum":
			res, err := h.Sum(ctx, req)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\nSUM(%s) estimate: %.1f\n", st.AggCol, res.Value)
			printCI(stdout, res.Estimate)
		case "avg":
			res, _, err := h.Avg(ctx, req)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\nAVG(%s) estimate: %.3f (SUM %.1f / COUNT %.1f)\n",
				st.AggCol, res.Avg, res.Sum.Value, res.Count.Value)
		}
		if *exact {
			//lint:ignore materialize exact SUM/AVG reads the aggregate column off every result row
			res, err := algebra.Eval(st.Expr, cat)
			if err != nil {
				return err
			}
			pos := res.Schema().MustColumnIndex(st.AggCol)
			sum, cnt := 0.0, 0
			res.EachRow(func(i int, row relation.Row) bool {
				if v := row.Value(pos); !v.IsNull() {
					sum += v.Float64()
					cnt++
				}
				return true
			})
			if st.Agg == "sum" {
				fmt.Fprintf(stdout, "exact SUM: %.1f\n", sum)
			} else if cnt > 0 {
				fmt.Fprintf(stdout, "exact AVG: %.3f\n", sum/float64(res.Len()))
			}
		}
		return nil
	}
	switch {
	case *deadline > 0:
		est, history, err := estimator.DeadlineCountContext(ctx, st.Expr, syn, estimator.DeadlineOptions{
			Budget:   *deadline,
			Estimate: opts,
			RNG:      rng,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ndeadline estimate after %d rounds: %.1f\n", len(history), est.Value)
		printCI(stdout, est)
	case *target > 0:
		res, err := estimator.SequentialCountContext(ctx, st.Expr, syn, estimator.SequentialOptions{
			TargetRelErr: *target,
			Confidence:   *confidence,
			Estimate:     opts,
			RNG:          rng,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\npilot estimate:  %.1f (±%.1f)\n", res.Pilot.Value, res.Pilot.StdErr)
		fmt.Fprintf(stdout, "growth factor:   %.2f, final samples %v\n", res.GrowthFactor, res.SampleSizes)
		fmt.Fprintf(stdout, "final estimate:  %.1f\n", res.Final.Value)
		printCI(stdout, res.Final)
		fmt.Fprintf(stdout, "target met:      %v\n", res.TargetMet)
	default:
		res, err := h.Count(ctx, req)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nestimate: %.1f\n", res.Value)
		printCI(stdout, res.Estimate)
		if tiered {
			fmt.Fprintf(stdout, "tier:     %s (%d sketch, %d sample terms)\n",
				res.Tier.Answered, res.Tier.SketchTerms, res.Tier.SampleTerms)
		}
	}

	if *exact {
		start := time.Now()
		actual, err := algebra.Count(st.Expr, cat)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "exact:    %d (computed in %s)\n", actual, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func printCI(stdout io.Writer, est estimator.Estimate) {
	if est.StdErr > 0 {
		fmt.Fprintf(stdout, "stderr:   %.1f (variance via %s)\n", est.StdErr, est.VarianceMethod)
		fmt.Fprintf(stdout, "%.0f%% CI:   [%.1f, %.1f]\n", 100*est.Confidence, est.Lo, est.Hi)
	}
}

func distinctMethod(name string) (estimator.DistinctMethod, error) {
	switch strings.ToLower(name) {
	case "goodman":
		return estimator.DistinctGoodman, nil
	case "scale-up", "scaleup":
		return estimator.DistinctScaleUp, nil
	case "sample-d", "sampled":
		return estimator.DistinctSampleD, nil
	case "jackknife":
		return estimator.DistinctJackknife, nil
	case "gee":
		return estimator.DistinctGEE, nil
	default:
		return 0, fmt.Errorf("unknown distinct method %q", name)
	}
}

// flushObs writes the collected metrics and trace to their destinations on
// exit ("-" = stderr). A nil collector (observability off) is a no-op.
func flushObs(c *obs.Collector, metricsPath, tracePath string) error {
	if c == nil {
		return nil
	}
	if metricsPath != "" {
		w, done, err := openOut(metricsPath)
		if err != nil {
			return err
		}
		werr := c.Metrics().WritePrometheus(w)
		if werr == nil {
			werr = c.Metrics().WriteJSON(w)
		}
		if cerr := done(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing -metrics: %w", werr)
		}
	}
	if tracePath != "" {
		w, done, err := openOut(tracePath)
		if err != nil {
			return err
		}
		werr := c.Trace().WriteText(w)
		if cerr := done(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing -trace: %w", werr)
		}
	}
	return nil
}

// openOut resolves an output destination: "-" is stderr (never closed),
// anything else is created as a file whose Close the caller must run.
func openOut(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stderr, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}
