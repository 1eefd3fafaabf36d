package estimator

import (
	"context"
	"fmt"

	"relest/internal/algebra"
	"relest/internal/obs"
	"relest/internal/parallel"
)

// Estimate is the result of a COUNT estimation.
type Estimate struct {
	// Value is the point estimate of COUNT(E).
	Value float64
	// Variance is the estimated variance of Value; NaN when no variance
	// method was requested or applicable. Unbiased variance estimators can
	// be negative on unlucky samples; StdErr clamps at zero.
	Variance float64
	// StdErr is sqrt(max(Variance, 0)).
	StdErr float64
	// Lo and Hi bound the confidence interval at the requested level
	// (both zero when no variance is available).
	Lo, Hi float64
	// Confidence is the nominal CI level used.
	Confidence float64
	// VarianceMethod records how Variance was obtained.
	VarianceMethod VarianceMethod
	// Terms is the number of counting-polynomial terms evaluated.
	Terms int
}

// VarianceMethod selects how the estimator's variance is assessed.
type VarianceMethod int

// Variance estimation strategies.
const (
	// VarAuto picks the best available method: closed-form where exact
	// (single-relation polynomials; single two-relation terms), otherwise
	// split-sample replication.
	VarAuto VarianceMethod = iota
	// VarNone skips variance estimation.
	VarNone
	// VarAnalytic requires a closed form and fails when none applies.
	VarAnalytic
	// VarSplitSample partitions each relation's sample into Options.Groups
	// groups and uses the spread of the per-group replicate estimates.
	VarSplitSample
	// VarJackknife uses delete-one replicates over every relation sample.
	// Exact-ish and expensive: O(Σ n_i) re-evaluations.
	VarJackknife
	// VarSketch marks an estimate answered entirely by the sketch tier:
	// the variance is the coefficient-weighted sum of the per-term
	// median-of-means variances (see tier.go). It is reported, never
	// requested — Options.Variance still selects the sample-tier method
	// used for any escalated terms.
	VarSketch
)

// String names the method.
func (m VarianceMethod) String() string {
	switch m {
	case VarAuto:
		return "auto"
	case VarNone:
		return "none"
	case VarAnalytic:
		return "analytic"
	case VarSplitSample:
		return "split-sample"
	case VarJackknife:
		return "jackknife"
	case VarSketch:
		return "sketch"
	default:
		return fmt.Sprintf("VarianceMethod(%d)", int(m))
	}
}

// CIMethod selects the confidence-interval construction.
type CIMethod int

// Confidence-interval constructions.
const (
	// CINormal uses the CLT: Est ± z·σ̂.
	CINormal CIMethod = iota
	// CIChebyshev is distribution-free: Est ± σ̂/√δ.
	CIChebyshev
)

// Options configures estimation.
type Options struct {
	// Variance selects the variance method (default VarAuto).
	Variance VarianceMethod
	// Groups is the number of split-sample groups (default 8, minimum 2).
	Groups int
	// Confidence is the CI level (default 0.95).
	Confidence float64
	// CI selects the interval construction (default CINormal).
	CI CIMethod
	// Seed drives the (deterministic) random grouping used by
	// VarSplitSample. Two estimates with the same Seed and synopsis use
	// identical groupings.
	Seed int64
	// Workers bounds the evaluation parallelism: 0 uses the process default
	// (GOMAXPROCS, or parallel.SetWorkers), 1 forces serial evaluation, and
	// n > 1 allows up to n goroutines. Estimates are bit-identical for every
	// setting: all parallel reductions run in a fixed order independent of
	// the worker count.
	Workers int
	// Recorder receives the call's metrics and spans (see internal/obs);
	// nil disables recording at near-zero cost. Recording is passive — it
	// never consumes randomness or changes evaluation order — so estimates
	// are bit-identical with or without it.
	Recorder obs.Recorder
	// Vestigial: no effect since PR 22 removed cross-term prefix sharing
	// (DESIGN.md §11); the field stays only because benchmark/ compiles
	// against it. Remove when the benchmark contract is next revised.
	DisableCSE bool
}

func (o Options) withDefaults() Options {
	if o.Groups <= 1 {
		o.Groups = 8
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Confidence = 0.95
	}
	return o
}

// estimatePoly is the sample tier, the one estimator every aggregate
// shares (DESIGN.md §3):
//
//	Ŷ = Σ_T coef_T · Σ_A c(A)·w(A)
//
// summed over the polynomial's terms T and each term's satisfying sample
// assignments A, with w the sampling weight (relTermMeta.factor) and c the
// contribution: 1 for COUNT, a column's value for SUM. It evaluates the
// point estimate and assesses its variance with the requested method.
func estimatePoly(ctx context.Context, poly algebra.Polynomial, syn *Synopsis, opts Options, contrib termContrib) (Estimate, error) {
	opts = opts.withDefaults()
	eng, err := startEstimate(ctx, poly, syn, opts)
	if err != nil {
		return Estimate{}, err
	}
	defer eng.span.End()
	return eng.estimate(poly, syn, opts, contrib)
}

// estimate is one aggregate's point estimate and variance on the call's
// engine. Several aggregates of one polynomial (Avg's SUM and COUNT) share
// an engine, and with it its plans and its pair tallies.
func (eng *engine) estimate(poly algebra.Polynomial, syn *Synopsis, opts Options, contrib termContrib) (Estimate, error) {
	value, err := pointEstimate(poly, syn, eng, contrib)
	if err != nil {
		return Estimate{}, err
	}
	vspan := eng.span.Child(sVariance)
	variance, method, err := estimateVariance(poly, syn, opts, eng, contrib)
	vspan.End()
	if err != nil {
		return Estimate{}, err
	}
	eng.rec.Add(varianceMethodMetric(method), 1)
	return finishEstimate(value, variance, method, poly.NumTerms(), opts), nil
}

// startEstimate opens one sample-tier evaluation: it checks the
// unbiasedness preconditions and returns the call's engine with its root
// span open (the caller ends it) and the sample volume recorded.
func startEstimate(ctx context.Context, poly algebra.Polynomial, syn *Synopsis, opts Options) (*engine, error) {
	if err := checkSampleSizes(poly, syn); err != nil {
		return nil, err
	}
	eng := newEngine(ctx, syn, opts)
	eng.span = eng.rec.Span(sEstimate)
	recordSynopsis(eng.rec, poly, syn)
	return eng, nil
}

// checkSampleSizes verifies n_R ≥ (occurrences of R in any term) for every
// relation — the condition under which the pattern-weighted estimator is
// unbiased — that every referenced relation is in the synopsis, and that
// repeated relations were sampled tuple-at-a-time (the pattern weights
// assume SRSWOR of tuples, which page samples are not).
func checkSampleSizes(poly algebra.Polynomial, syn *Synopsis) error {
	for _, t := range poly.Terms {
		byRel := map[string]int{}
		for _, o := range t.Occs {
			byRel[o.RelName]++
		}
		for rel, occs := range byRel {
			rs, ok := syn.rels[rel]
			if !ok {
				return fmt.Errorf("estimator: no sample for relation %q in synopsis", rel)
			}
			if rs.n < occs && rs.N > 0 {
				// An empty population is exempt: its census sample is empty
				// too, and checkTermSamples makes the term contribute zero.
				return fmt.Errorf("estimator: sample of %q has %d rows but the expression uses it %d times in one term; need n ≥ %d for unbiasedness",
					rel, rs.n, occs, occs)
			}
			if occs > 1 && (!rs.tupleDesign() || !rs.uniformWeights()) {
				return fmt.Errorf("estimator: relation %q occurs %d times in one term but was not sampled as a plain tuple-level SRSWOR; repeated-relation terms require that design",
					rel, occs)
			}
		}
	}
	return nil
}

// pointEstimate evaluates the polynomial estimator over the synopsis,
// fanning the terms (or, for a single term, its plan partitions) across the
// engine's workers. Per-term values are reduced in term order, so the result
// does not depend on the worker count.
func pointEstimate(poly algebra.Polynomial, syn *Synopsis, eng *engine, contrib termContrib) (float64, error) {
	vals := make([]float64, len(poly.Terms))
	outer, inner := splitWorkers(len(poly.Terms), eng.workers)
	err := parallel.ForErrRec(len(poly.Terms), outer, eng.rec, func(i int) error {
		if err := eng.cancelled(); err != nil {
			return err
		}
		ts := eng.span.Child(sTerm)
		v, err := estimateTerm(&poly.Terms[i], syn, eng, inner, contrib)
		ts.End()
		vals[i] = v
		return err
	})
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i := range vals {
		total += float64(poly.Terms[i].Coef) * vals[i]
	}
	return total, nil
}

// estimateTerm computes the unbiased estimate Σ_A c(A)·w(A) of one term
// from the per-relation samples: every satisfying sample assignment is
// weighted by the inverse of its inclusion probability (see
// relTermMeta.factor, package doc and DESIGN.md for the unbiasedness
// argument, including the repeated-relation pattern weights).
//
// Fast paths, when the weight is the constant w = ∏ M_R/m_R: a COUNT is w
// times the number of satisfying assignments, which the call's tally of
// the term holds when a round handed it one (engine.keepPairs) and the
// plan counts otherwise, without enumerating folded tails; a SUM over a
// plan of the Pairs shape whose summed column an enumerated occurrence
// supplies is w times the weighted bucket tally's T (engine.pairMoments).
// Every other SUM enumerates its assignments.
func estimateTerm(t *algebra.Term, syn *Synopsis, eng *engine, workers int, contrib termContrib) (float64, error) {
	metas, err := termRelMetas(t, syn)
	if err != nil {
		return 0, err
	}
	if ok, err := checkTermSamples(metas); !ok {
		return 0, err
	}
	b := &boundTerm{metas: metas}
	if constWeight(metas) && contrib.constant() {
		if pm, ok := eng.tallied(t, contrib); ok {
			return b.weight(nil) * pm.Total, nil
		}
	}
	if b.inst, b.pt, err = eng.plan(t, syn); err != nil {
		return 0, err
	}
	if constWeight(metas) {
		if contrib.constant() {
			return b.weight(nil) * eng.countTerm(t, b.pt, workers), nil
		}
		if b.pt.Pairs() {
			w, err := contrib.rowWeight(t, b.inst)
			if err != nil {
				return 0, err
			}
			if b.pt.Enumerated(w.Occ) {
				return b.weight(nil) * eng.pairMoments(t, b.pt, workers, contrib, w).Total, nil
			}
		}
	}
	value, err := contrib.bind(t, b.inst)
	if err != nil {
		return 0, err
	}
	return sumTerm(b.pt, workers, func(rows []int) float64 {
		return value(rows) * b.weight(rows)
	}), nil
}
