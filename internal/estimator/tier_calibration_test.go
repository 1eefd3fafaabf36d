// Sketch-tier calibration and escalation tests: seed-pinned checks that
// the AGMS tier answers the shapes it claims within its calibration band,
// escalates (never errors) on everything else, and composes mixed-tier
// estimates sensibly. Lives in estimator_test to drive the public handle
// the way facade callers do.
package estimator_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/workload"
)

// tierFixture draws a synopsis over a T2-style zipf join pair and returns
// the join expression and its exact count.
func tierFixture(t *testing.T, seed int64, nRows int) (*estimator.Synopsis, *algebra.Expr, float64) {
	t.Helper()
	src := sampling.NewSource(seed)
	r1, r2 := workload.JoinPair(src.Rand(0), workload.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: nRows / 20, N1: nRows, N2: nRows,
		Correlation: workload.Independent,
	})
	join := algebra.Must(algebra.Join(algebra.BaseOf(r1), algebra.BaseOf(r2),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))
	actual, err := algebra.Count(join, algebra.MapCatalog{"R1": r1, "R2": r2})
	if err != nil {
		t.Fatal(err)
	}
	rng := src.Rand(1)
	syn := estimator.NewSynopsis()
	if err := syn.AddDrawn(r1, nRows/20, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(r2, nRows/20, rng); err != nil {
		t.Fatal(err)
	}
	return syn, join, float64(actual)
}

// TestTierSketchCalibrationJoin pins the sketch tier's T2 contract: under
// the auto policy a plain equi-join is answered from the sketches, the
// point estimate lands inside the calibration band, and the reported CI
// covers the exact count. Everything is seed-pinned — the ξ streams come
// from the fixed sketch configuration — so a violation is a regression,
// not a flake.
func TestTierSketchCalibrationJoin(t *testing.T) {
	syn, join, actual := tierFixture(t, 7, 8_000)
	h := estimator.NewEstimator(syn, estimator.WithPrecision(0.15))
	res, err := h.Count(context.Background(), estimator.Request{Expr: join})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier.Answered != estimator.TierAnsweredSketch {
		t.Fatalf("tier %q (sketch %d, sample %d), want sketch", res.Tier.Answered,
			res.Tier.SketchTerms, res.Tier.SampleTerms)
	}
	if res.VarianceMethod != estimator.VarSketch {
		t.Errorf("variance method %v, want sketch", res.VarianceMethod)
	}
	relErr := math.Abs(res.Value-actual) / actual
	if relErr > 0.15 {
		t.Errorf("sketch estimate %v vs exact %v: relative error %.3f outside the 15%% band",
			res.Value, actual, relErr)
	}
	if !(res.Lo <= actual && actual <= res.Hi) {
		t.Errorf("95%% CI [%v, %v] misses the exact count %v", res.Lo, res.Hi, actual)
	}
	if res.StdErr <= 0 {
		t.Errorf("stderr %v, want > 0", res.StdErr)
	}
}

// TestTierSketchCalibrationSelfJoin pins the F₂ shape: joining a relation
// with itself on the join attribute is the second frequency moment, which
// the tier answers from one sketch's self-join estimator.
func TestTierSketchCalibrationSelfJoin(t *testing.T) {
	src := sampling.NewSource(13)
	gen := src.Rand(0)
	r := relation.New("R", relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt}))
	freq := map[int64]float64{}
	for i := 0; i < 20_000; i++ {
		v := int64(gen.Intn(500))
		r.MustAppend(relation.Tuple{relation.Int(v)})
		freq[v]++
	}
	var f2 float64
	for _, c := range freq {
		f2 += c * c
	}
	selfJoin := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(r),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))
	syn := estimator.NewSynopsis()
	if err := syn.AddDrawn(r, 500, src.Rand(1)); err != nil {
		t.Fatal(err)
	}
	h := estimator.NewEstimator(syn)
	res, err := h.Count(context.Background(), estimator.Request{Expr: selfJoin})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier.Answered != estimator.TierAnsweredSketch {
		t.Fatalf("tier %q, want sketch", res.Tier.Answered)
	}
	if relErr := math.Abs(res.Value-f2) / f2; relErr > 0.10 {
		t.Errorf("F₂ estimate %v vs exact %v: relative error %.3f outside the 10%% band",
			res.Value, f2, relErr)
	}
}

// TestTierEscalationNeverErrors drives every sketch-ineligible shape the
// planner must escalate — selections, θ residuals, set operations,
// products, and relations registered without a base — and asserts the auto
// policy answers each one through the sample tier with the exact value the
// legacy path computes, never an error.
func TestTierEscalationNeverErrors(t *testing.T) {
	src := sampling.NewSource(3)
	r1, r2 := workload.JoinPair(src.Rand(0), workload.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: 200, N1: 4_000, N2: 4_000,
		Correlation: workload.Independent,
	})
	rng := src.Rand(1)
	syn := estimator.NewSynopsis()
	if err := syn.AddDrawn(r1, 400, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(r2, 400, rng); err != nil {
		t.Fatal(err)
	}

	equi := []algebra.On{{Left: "a", Right: "a"}}
	shapes := []struct {
		name string
		expr *algebra.Expr
	}{
		{"selection", algebra.Must(algebra.Select(algebra.BaseOf(r1),
			algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(50)}))},
		{"theta residual", algebra.Must(algebra.Join(algebra.BaseOf(r1), algebra.BaseOf(r2),
			equi, algebra.ColCmp{A: "a", B: "R2.a", Op: algebra.LE}, "R2"))},
		{"selected join", algebra.Must(algebra.Select(
			algebra.Must(algebra.Join(algebra.BaseOf(r1), algebra.BaseOf(r2), equi, nil, "R2")),
			algebra.Cmp{Col: "a", Op: algebra.GT, Val: relation.Int(20)}))},
		{"union", algebra.Must(algebra.Union(algebra.BaseOf(r1), algebra.BaseOf(r2)))},
		{"intersection", algebra.Must(algebra.Intersect(algebra.BaseOf(r1), algebra.BaseOf(r2)))},
		{"difference", algebra.Must(algebra.Diff(algebra.BaseOf(r1), algebra.BaseOf(r2)))},
	}
	h := estimator.NewEstimator(syn)
	ctx := context.Background()
	for _, c := range shapes {
		t.Run(c.name, func(t *testing.T) {
			res, err := h.Count(ctx, estimator.Request{Expr: c.expr})
			if err != nil {
				t.Fatalf("auto policy errored on a sketch-ineligible shape: %v", err)
			}
			if res.Tier.SampleTerms == 0 {
				t.Fatalf("tier report %+v: expected at least one escalated term", res.Tier)
			}
			want, err := sampleCount(c.expr, syn, estimator.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Tier.Answered == estimator.TierAnsweredSample && res.Value != want.Value {
				t.Errorf("escalated value %v != legacy sample value %v", res.Value, want.Value)
			}
		})
	}

	// A relation registered via AddSample has no base to sketch: a plain
	// equi-join over it must escalate under auto, not error.
	sampleOnly := estimator.NewSynopsis()
	sub := relation.New("R1", r1.Schema())
	for i := 0; i < 200; i++ {
		sub.MustAppend(relation.Tuple{r1.Value(i, 0), r1.Value(i, 1)})
	}
	if err := sampleOnly.AddSample(sub, r1.Len()); err != nil {
		t.Fatal(err)
	}
	sub2 := relation.New("R2", r2.Schema())
	for i := 0; i < 200; i++ {
		sub2.MustAppend(relation.Tuple{r2.Value(i, 0), r2.Value(i, 1)})
	}
	if err := sampleOnly.AddSample(sub2, r2.Len()); err != nil {
		t.Fatal(err)
	}
	join := algebra.Must(algebra.Join(algebra.BaseOf(r1), algebra.BaseOf(r2), equi, nil, "R2"))
	res, err := estimator.NewEstimator(sampleOnly).Count(ctx, estimator.Request{Expr: join})
	if err != nil {
		t.Fatalf("auto policy errored on a baseless synopsis: %v", err)
	}
	if res.Tier.Answered != estimator.TierAnsweredSample {
		t.Errorf("tier %q over a baseless synopsis, want sample", res.Tier.Answered)
	}
	// The sketch-only policy is the one that refuses, with a reason.
	_, err = estimator.NewEstimator(sampleOnly,
		estimator.WithTierPolicy(estimator.TierSketchOnly)).Count(ctx, estimator.Request{Expr: join})
	if err == nil || !strings.Contains(err.Error(), "no sketch tier") {
		t.Errorf("sketch-only over a baseless synopsis: err %v, want a no-sketch-tier refusal", err)
	}
}

// TestTierMixedComposition: a union polynomial mixes exact cardinality
// terms (sketch tier) with an intersection term (sample tier); the planner
// must report "mixed" and compose the value from both tiers. The bases are
// duplicate-free (set semantics — what the set-operation polynomial
// identities assume) and two-column, so the intersection term carries two
// equalities and escalates.
func TestTierMixedComposition(t *testing.T) {
	src := sampling.NewSource(19)
	schema := relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindInt})
	r1 := relation.New("R1", schema)
	r2 := relation.New("R2", schema)
	for i := 0; i < 10_000; i++ {
		r1.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % 7))})
		r2.MustAppend(relation.Tuple{relation.Int(int64(i + 5_000)), relation.Int(int64((i + 5_000) % 7))})
	}
	union := algebra.Must(algebra.Union(algebra.BaseOf(r1), algebra.BaseOf(r2)))
	actual, err := algebra.Count(union, algebra.MapCatalog{"R1": r1, "R2": r2})
	if err != nil {
		t.Fatal(err)
	}
	rng := src.Rand(1)
	syn := estimator.NewSynopsis()
	if err := syn.AddDrawn(r1, 800, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(r2, 800, rng); err != nil {
		t.Fatal(err)
	}
	res, err := estimator.NewEstimator(syn).Count(context.Background(), estimator.Request{Expr: union})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier.Answered != estimator.TierAnsweredMixed {
		t.Fatalf("tier %q (sketch %d, sample %d), want mixed", res.Tier.Answered,
			res.Tier.SketchTerms, res.Tier.SampleTerms)
	}
	if res.Tier.SketchTerms < 2 || res.Tier.SampleTerms < 1 {
		t.Errorf("tier report %+v: want ≥2 sketch terms (the cardinalities) and ≥1 escalated", res.Tier)
	}
	if relErr := math.Abs(res.Value-float64(actual)) / float64(actual); relErr > 0.25 {
		t.Errorf("mixed estimate %v vs exact %d: relative error %.3f", res.Value, actual, relErr)
	}
	if res.StdErr <= 0 || !(res.Lo < res.Value && res.Value < res.Hi) {
		t.Errorf("mixed CI not composed: stderr %v, CI [%v, %v]", res.StdErr, res.Lo, res.Hi)
	}
}

// TestEstimatorHandleAggregates covers the handle's non-count surface:
// aggregates are sample-tier by construction, refuse the sketch-only
// policy, and honor cancellation.
func TestEstimatorHandleAggregates(t *testing.T) {
	src := sampling.NewSource(29)
	r1, _ := workload.JoinPair(src.Rand(0), workload.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: 100, N1: 2_000, N2: 2_000,
		Correlation: workload.Independent,
	})
	syn := estimator.NewSynopsis()
	if err := syn.AddDrawn(r1, 200, src.Rand(1)); err != nil {
		t.Fatal(err)
	}
	base := algebra.BaseOf(r1)
	ctx := context.Background()
	h := estimator.NewEstimator(syn)

	sum, err := h.Sum(ctx, estimator.Request{Expr: base, Col: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Tier.Answered != estimator.TierAnsweredSample || sum.Value <= 0 {
		t.Errorf("Sum: tier %q value %v", sum.Tier.Answered, sum.Value)
	}
	avg, rep, err := h.Avg(ctx, estimator.Request{Expr: base, Col: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Answered != estimator.TierAnsweredSample || avg.Avg <= 0 {
		t.Errorf("Avg: tier %q value %v", rep.Answered, avg.Avg)
	}
	groups, rep, err := h.GroupCount(ctx, estimator.Request{Expr: base, Col: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Answered != estimator.TierAnsweredSample || len(groups) == 0 {
		t.Errorf("GroupCount: tier %q groups %d", rep.Answered, len(groups))
	}

	sk := estimator.NewEstimator(syn, estimator.WithTierPolicy(estimator.TierSketchOnly))
	if _, err := sk.Sum(ctx, estimator.Request{Expr: base, Col: "a"}); err == nil {
		t.Error("sketch-only Sum must fail")
	}
	if _, _, err := sk.Avg(ctx, estimator.Request{Expr: base, Col: "a"}); err == nil {
		t.Error("sketch-only Avg must fail")
	}
	if _, _, err := sk.GroupCount(ctx, estimator.Request{Expr: base, Col: "a"}); err == nil {
		t.Error("sketch-only GroupCount must fail")
	}

	// A cancelled context aborts with an error, not a partial result.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := h.GroupCount(cancelled, estimator.Request{Expr: base, Col: "a"}); err == nil {
		t.Error("cancelled GroupCount must fail")
	}

	// The tier policy belongs to the handle: a sample-only handle builds no
	// sketches, and a TierAuto handle over the same synopsis builds them at
	// construction and answers the bare cardinality from them.
	fresh := estimator.NewSynopsis()
	if err := fresh.AddDrawn(r1, 200, src.Rand(2)); err != nil {
		t.Fatal(err)
	}
	so := estimator.NewEstimator(fresh, estimator.WithTierPolicy(estimator.TierSampleOnly))
	if _, err := so.Count(ctx, estimator.Request{Expr: base}); err != nil {
		t.Fatal(err)
	}
	if b := fresh.SketchBytes(); b != 0 {
		t.Errorf("sample-only handle built %d B of sketches", b)
	}
	auto := estimator.NewEstimator(fresh, estimator.WithTierPolicy(estimator.TierAuto))
	res, err := auto.Count(ctx, estimator.Request{Expr: base})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier.Answered != estimator.TierAnsweredSketch {
		t.Errorf("auto handle answered %q, want sketch (bare cardinality)", res.Tier.Answered)
	}
}
