package estimator

import (
	"context"
	"fmt"
	"math"

	"relest/internal/algebra"
	"relest/internal/obs"
)

// Estimator is the unified estimation handle: one synopsis, one set of
// evaluation options, one tier policy, answering every request from the
// cheapest tier that meets its precision target. It is the single owner
// of the path from an expression to an Estimate: every caller — CLI,
// server, planner, experiments — builds a handle and issues requests.
//
// A handle is cheap and immutable after construction; it is safe for
// concurrent use exactly when its synopsis is (static synopses are —
// EnsureSketches is the only internal mutation and is mutex-guarded and
// idempotent).
type Estimator struct {
	syn       *Synopsis
	opts      Options
	policy    TierPolicy
	precision float64
}

// EstimatorOption configures a handle at construction.
type EstimatorOption func(*Estimator)

// WithOptions sets the evaluation options (variance method, confidence,
// workers, recorder, ...) used by every request on the handle.
func WithOptions(opts Options) EstimatorOption {
	return func(e *Estimator) { e.opts = opts }
}

// WithTierPolicy sets the handle's tier policy (TierAuto when unset).
func WithTierPolicy(p TierPolicy) EstimatorOption {
	return func(e *Estimator) { e.policy = p }
}

// WithPrecision sets the handle's target relative CI half-width for
// accepting sketch-tier answers (DefaultPrecision when unset).
func WithPrecision(w float64) EstimatorOption {
	return func(e *Estimator) { e.precision = w }
}

// NewEstimator builds an estimation handle over the synopsis. Unless the
// policy is TierSampleOnly it also builds the synopsis's sketch tier
// (idempotent; one full scan of each retained base relation the first
// time).
func NewEstimator(syn *Synopsis, eopts ...EstimatorOption) *Estimator {
	e := &Estimator{syn: syn, policy: TierAuto}
	for _, o := range eopts {
		o(e)
	}
	if e.policy == TierDefault {
		e.policy = TierAuto
	}
	if e.precision <= 0 {
		e.precision = DefaultPrecision
	}
	if e.policy != TierSampleOnly {
		syn.EnsureSketches()
	}
	return e
}

// Request is one estimation request against a handle.
type Request struct {
	// Expr is the π-free relational algebra expression.
	Expr *algebra.Expr
	// Col names the aggregated column (Sum/Avg) or grouping column
	// (GroupCount); ignored by Count.
	Col string
}

// Result is an estimate plus the tier(s) that answered it.
type Result struct {
	Estimate
	// Tier reports which tier(s) produced the value.
	Tier TierReport
}

// recordTier emits the tier-planner metrics (tiered requests only, so
// sample-only requests keep their historical metric families exactly).
func (e *Estimator) recordTier(rep TierReport) {
	rec := e.opts.Recorder
	if !obs.Live(rec) {
		return
	}
	rec.Add(tierAnsweredMetric(rep.Answered), 1)
	rec.Set(mSketchBytes, float64(e.syn.SketchBytes()))
}

// Count estimates COUNT(req.Expr) through the tier planner (see tier.go).
//
// The expression must be π-free (use Distinct for projection counts). Set
// operations (∪, ∩, −) additionally require the base relations involved to
// be duplicate-free, which is the caller's contract. The estimator is
// unbiased provided every relation's sample size is at least the relation's
// maximum number of occurrences in any polynomial term (it returns an error
// below that).
//
// The context is polled between polynomial terms, in the point estimate
// and in each variance pass, and a cancelled call returns a non-nil
// error, never a partial estimate; the polling consumes no randomness and
// reorders nothing.
//
// Under TierSampleOnly every term escalates, so the planner hands the whole
// polynomial to the sample tier untouched: no sketches are built and no
// tier metrics are emitted.
//
// The polynomial is fused first (Synopsis.countPoly): a set operation over
// selections of one duplicate-free drawn relation counts as a few
// weighted terms, often one, whose variance then has a closed form.
func (e *Estimator) Count(ctx context.Context, req Request) (Result, error) {
	poly, err := e.syn.countPoly(req.Expr)
	if err != nil {
		return Result{}, err
	}
	est, rep, err := tieredCount(ctx, poly, e.syn, e.opts, e.policy, e.precision)
	if err != nil {
		return Result{}, err
	}
	if e.policy != TierSampleOnly {
		e.recordTier(rep)
	}
	return Result{Estimate: est, Tier: rep}, nil
}

// Sum estimates SUM(req.Col) over req.Expr's result. Aggregates carry no
// sketch form, so every Sum is answered by the sample tier; a
// TierSketchOnly request fails rather than silently downgrading.
func (e *Estimator) Sum(ctx context.Context, req Request) (Result, error) {
	if e.policy == TierSketchOnly {
		return Result{}, fmt.Errorf("estimator: sketch tier cannot answer SUM(%s); aggregates need the sample tier (auto or sample policy)", req.Col)
	}
	poly, contrib, err := sumPoly(req.Expr, req.Col)
	if err != nil {
		return Result{}, err
	}
	est, err := estimatePoly(ctx, poly, e.syn, e.opts, contrib)
	if err != nil {
		return Result{}, err
	}
	return Result{Estimate: est, Tier: TierReport{Answered: TierAnsweredSample, SampleTerms: est.Terms}}, nil
}

// Avg estimates AVG(req.Col) over req.Expr's result as the ratio of the
// SUM and COUNT estimators — biased O(1/n) but consistent (the classical
// ratio estimator). Like Sum it is always sample-tier. Both estimates run
// on one engine: they share its plans, and a COUNT term of the Pairs shape
// reads the plain counts the SUM's weighted tally recorded instead of
// probing the join again.
func (e *Estimator) Avg(ctx context.Context, req Request) (AvgResult, TierReport, error) {
	if e.policy == TierSketchOnly {
		return AvgResult{}, TierReport{}, fmt.Errorf("estimator: sketch tier cannot answer AVG(%s); aggregates need the sample tier (auto or sample policy)", req.Col)
	}
	poly, contrib, err := sumPoly(req.Expr, req.Col)
	if err != nil {
		return AvgResult{}, TierReport{}, err
	}
	opts := e.opts.withDefaults()
	eng, err := startEstimate(ctx, poly, e.syn, opts)
	if err != nil {
		return AvgResult{}, TierReport{}, err
	}
	defer eng.span.End()
	sum, err := eng.estimate(poly, e.syn, opts, contrib)
	if err != nil {
		return AvgResult{}, TierReport{}, err
	}
	cnt, err := eng.estimate(poly, e.syn, opts, countContrib)
	if err != nil {
		return AvgResult{}, TierReport{}, err
	}
	out := AvgResult{Sum: sum, Count: cnt, Avg: math.NaN()}
	//lint:ignore floateq division guard: only an exactly-zero count estimate leaves Avg undefined (NaN)
	if cnt.Value != 0 {
		out.Avg = sum.Value / cnt.Value
	}
	return out, TierReport{Answered: TierAnsweredSample}, nil
}

// GroupCount estimates COUNT(*) GROUP BY req.Col over req.Expr's result,
// sorted by descending estimated count. Always sample-tier.
func (e *Estimator) GroupCount(ctx context.Context, req Request) ([]GroupEstimate, TierReport, error) {
	if e.policy == TierSketchOnly {
		return nil, TierReport{}, fmt.Errorf("estimator: sketch tier cannot answer GROUP BY %s; grouping needs the sample tier (auto or sample policy)", req.Col)
	}
	groups, err := groupCount(ctx, req.Expr, req.Col, e.syn, e.opts)
	if err != nil {
		return nil, TierReport{}, err
	}
	return groups, TierReport{Answered: TierAnsweredSample}, nil
}
