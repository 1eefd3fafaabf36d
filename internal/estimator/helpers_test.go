package estimator

import (
	"context"
	"math/rand"

	"relest/internal/algebra"
)

// Shorthands for the tests: every estimate goes through a sample-only
// Estimator handle, the one path the package exposes.

func sampleHandle(syn *Synopsis, opts Options) *Estimator {
	return NewEstimator(syn, WithOptions(opts), WithTierPolicy(TierSampleOnly))
}

func countCtx(ctx context.Context, e *algebra.Expr, syn *Synopsis, opts Options) (Estimate, error) {
	res, err := sampleHandle(syn, opts).Count(ctx, Request{Expr: e})
	return res.Estimate, err
}

func countOf(e *algebra.Expr, syn *Synopsis, opts Options) (Estimate, error) {
	return countCtx(context.Background(), e, syn, opts)
}

func sumCtx(ctx context.Context, e *algebra.Expr, col string, syn *Synopsis, opts Options) (Estimate, error) {
	res, err := sampleHandle(syn, opts).Sum(ctx, Request{Expr: e, Col: col})
	return res.Estimate, err
}

func sumOf(e *algebra.Expr, col string, syn *Synopsis, opts Options) (Estimate, error) {
	return sumCtx(context.Background(), e, col, syn, opts)
}

func avgCtx(ctx context.Context, e *algebra.Expr, col string, syn *Synopsis, opts Options) (AvgResult, error) {
	res, _, err := sampleHandle(syn, opts).Avg(ctx, Request{Expr: e, Col: col})
	return res, err
}

func avgOf(e *algebra.Expr, col string, syn *Synopsis, opts Options) (AvgResult, error) {
	return avgCtx(context.Background(), e, col, syn, opts)
}

func groupsOf(e *algebra.Expr, col string, syn *Synopsis) ([]GroupEstimate, error) {
	groups, _, err := sampleHandle(syn, Options{}).GroupCount(context.Background(), Request{Expr: e, Col: col})
	return groups, err
}

func seqCount(e *algebra.Expr, syn *Synopsis, rng *rand.Rand, opts SequentialOptions) (SequentialResult, error) {
	opts.RNG = rng
	return SequentialCountContext(context.Background(), e, syn, opts)
}

func deadlineCount(e *algebra.Expr, syn *Synopsis, rng *rand.Rand, opts DeadlineOptions) (Estimate, []DeadlineStep, error) {
	opts.RNG = rng
	return DeadlineCountContext(context.Background(), e, syn, opts)
}
