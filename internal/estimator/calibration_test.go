// Statistical calibration regression tests: seed-pinned Monte-Carlo checks
// that the estimators' bias, error, and CI coverage stay inside recorded
// bands. The runs are deterministic (every trial's RNG comes from the
// sampling.Source tree), so a band violation is a code regression, not a
// flake. The bands themselves are set from the statistical contract — e.g.
// a 95% CI must cover roughly 95% of the time over ~150 trials — with
// margins wide enough to absorb a reseeding but far too tight for a broken
// variance formula or a biased scale-up to slip through.
//
// The suite lives in package estimator_test so it can reuse the bench
// accumulators (ErrorStats, Coverage) without an import cycle.
package estimator_test

import (
	"context"
	"math"
	"testing"

	"relest/internal/algebra"
	"relest/internal/bench"
	"relest/internal/estimator"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/workload"
)

// sampleCount estimates COUNT(e) through a sample-only handle.
func sampleCount(e *algebra.Expr, syn *estimator.Synopsis, opts estimator.Options) (estimator.Estimate, error) {
	h := estimator.NewEstimator(syn, estimator.WithOptions(opts), estimator.WithTierPolicy(estimator.TierSampleOnly))
	res, err := h.Count(context.Background(), estimator.Request{Expr: e})
	return res.Estimate, err
}

// sampleSum estimates SUM(col) over e through a sample-only handle.
func sampleSum(e *algebra.Expr, col string, syn *estimator.Synopsis, opts estimator.Options) (estimator.Estimate, error) {
	h := estimator.NewEstimator(syn, estimator.WithOptions(opts), estimator.WithTierPolicy(estimator.TierSampleOnly))
	res, err := h.Sum(context.Background(), estimator.Request{Expr: e, Col: col})
	return res.Estimate, err
}

// inBand fails the test when v is outside [lo, hi].
func inBand(t *testing.T, what string, v, lo, hi float64) {
	t.Helper()
	if math.IsNaN(v) || v < lo || v > hi {
		t.Errorf("%s = %.3f, want within [%.2f, %.2f]", what, v, lo, hi)
	}
}

// TestCalibrationSelection pins the T1 contract: the SRSWOR selection
// scale-up with analytic variance is unbiased and its 95% CIs cover at
// roughly the nominal rate, at a 5% sampling fraction.
func TestCalibrationSelection(t *testing.T) {
	const (
		nRows  = 20_000
		domain = 1_000_000
		sel    = 0.1
		frac   = 0.05
		trials = 150
	)
	src := sampling.NewSource(42)
	gen := src.Rand(0)
	rel := relation.New("R", relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt}))
	for i := 0; i < nRows; i++ {
		rel.MustAppend(relation.Tuple{relation.Int(int64(gen.Intn(domain)))})
	}
	e := algebra.Must(algebra.Select(algebra.BaseOf(rel),
		algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(int64(sel * domain))}))
	actual, err := algebra.Count(e, algebra.MapCatalog{"R": rel})
	if err != nil {
		t.Fatal(err)
	}

	var es bench.ErrorStats
	var cov bench.Coverage
	for tr := 0; tr < trials; tr++ {
		rng := src.Rand(1000 + tr)
		syn := estimator.NewSynopsis()
		if err := syn.AddDrawn(rel, int(frac*nRows), rng); err != nil {
			t.Fatal(err)
		}
		est, err := sampleCount(e, syn, estimator.Options{Variance: estimator.VarAnalytic})
		if err != nil {
			t.Fatal(err)
		}
		es.Observe(est.Value, float64(actual))
		cov.Observe(est.Lo, est.Hi, float64(actual))
	}
	// With p≈0.1 and n=1000 the per-trial relative error has σ≈9.5%, so the
	// mean signed error over 150 trials sits within ≈±2.5% and the ARE near
	// σ·√(2/π)≈7.6%. Coverage at 95% nominal: binomial σ≈1.8 points.
	inBand(t, "selection bias %", es.Bias(), -3, 3)
	inBand(t, "selection ARE %", es.ARE(), 4, 12)
	inBand(t, "selection 95% coverage", cov.Rate(), 90, 98)
}

// TestCalibrationJoin pins the T2 contract: the two-sample join estimator
// with the unbiased closed-form variance stays unbiased and its 95% CIs
// hold their level on a mildly skewed independent join.
func TestCalibrationJoin(t *testing.T) {
	const (
		nRows  = 8_000
		frac   = 0.05
		trials = 120
	)
	src := sampling.NewSource(7)
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

	var es bench.ErrorStats
	var cov bench.Coverage
	for tr := 0; tr < trials; tr++ {
		rng := src.Rand(1000 + tr)
		syn := estimator.NewSynopsis()
		if err := syn.AddDrawn(r1, int(frac*nRows), rng); err != nil {
			t.Fatal(err)
		}
		if err := syn.AddDrawn(r2, int(frac*nRows), rng); err != nil {
			t.Fatal(err)
		}
		est, err := sampleCount(join, syn, estimator.Options{Variance: estimator.VarAnalytic})
		if err != nil {
			t.Fatal(err)
		}
		es.Observe(est.Value, float64(actual))
		cov.Observe(est.Lo, est.Hi, float64(actual))
	}
	inBand(t, "join bias %", es.Bias(), -5, 5)
	inBand(t, "join 95% coverage", cov.Rate(), 88, 99)
}

// TestCalibrationSum pins the closed forms SUM reaches under VarAuto: a
// SUM over an equi-join (the weighted bucket tally's two-relation form,
// weighted by R1's id, which JoinPair assigns by key frequency rank) and
// a single-relation SUM (Cochran's form over y_i = value). Both must
// answer analytically, stay unbiased, and cover in the join band: the
// closed form is narrower than the split-sample replication it replaces
// (which over-covers, E[V̂]/Var ≈ 3 on T5's join) and must stay honest.
func TestCalibrationSum(t *testing.T) {
	const (
		nRows  = 8_000
		frac   = 0.05
		trials = 120
	)
	src := sampling.NewSource(23)
	r1, r2 := workload.JoinPair(src.Rand(0), workload.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: nRows / 20, N1: nRows, N2: nRows,
		Correlation: workload.Independent,
	})
	cat := algebra.MapCatalog{"R1": r1, "R2": r2}
	lt := func(col string, v int64) algebra.Predicate {
		return algebra.Cmp{Col: col, Op: algebra.LT, Val: relation.Int(v)}
	}
	join := algebra.Must(algebra.Join(algebra.Must(algebra.Select(algebra.BaseOf(r1), lt("a", nRows/40))),
		algebra.BaseOf(r2), []algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))
	sel := algebra.Must(algebra.Select(algebra.BaseOf(r1), lt("id", nRows/4)))
	for _, c := range []struct {
		name string
		e    *algebra.Expr
		rels []*relation.Relation
	}{
		{"join", join, []*relation.Relation{r1, r2}},
		{"select", sel, []*relation.Relation{r1}},
	} {
		res, err := algebra.Eval(c.e, cat)
		if err != nil {
			t.Fatal(err)
		}
		pos := res.Schema().MustColumnIndex("id")
		actual := 0.0
		res.EachRow(func(_ int, row relation.Row) bool {
			actual += float64(row.Value(pos).Int64())
			return true
		})
		var es bench.ErrorStats
		var cov bench.Coverage
		for tr := 0; tr < trials; tr++ {
			rng := src.Rand(1000 + tr)
			syn := estimator.NewSynopsis()
			for _, r := range c.rels {
				if err := syn.AddDrawn(r, int(frac*nRows), rng); err != nil {
					t.Fatal(err)
				}
			}
			est, err := sampleSum(c.e, "id", syn, estimator.Options{Seed: int64(tr)})
			if err != nil {
				t.Fatal(err)
			}
			if est.VarianceMethod != estimator.VarAnalytic {
				t.Fatalf("%s SUM answered by %v under VarAuto, want the closed form", c.name, est.VarianceMethod)
			}
			es.Observe(est.Value, actual)
			cov.Observe(est.Lo, est.Hi, actual)
		}
		t.Logf("%s SUM: bias %.2f%%, ARE %.2f%%, 95%% coverage %.1f%%", c.name, es.Bias(), es.ARE(), cov.Rate())
		inBand(t, c.name+" SUM bias %", es.Bias(), -5, 5)
		inBand(t, c.name+" SUM 95% coverage", cov.Rate(), 88, 99)
	}
}

// TestCalibrationCoverageVsNominal pins the F2 contract: over the same
// selection trials, CI coverage tracks each nominal level and is monotone
// in the level — a broken quantile or variance shifts every band at once.
func TestCalibrationCoverageVsNominal(t *testing.T) {
	const (
		nRows  = 10_000
		domain = 100_000
		frac   = 0.05
		trials = 150
	)
	src := sampling.NewSource(11)
	gen := src.Rand(0)
	rel := relation.New("R", relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt}))
	for i := 0; i < nRows; i++ {
		rel.MustAppend(relation.Tuple{relation.Int(int64(gen.Intn(domain)))})
	}
	e := algebra.Must(algebra.Select(algebra.BaseOf(rel),
		algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(domain / 8)}))
	actual, err := algebra.Count(e, algebra.MapCatalog{"R": rel})
	if err != nil {
		t.Fatal(err)
	}

	levels := []float64{0.90, 0.95, 0.99}
	bands := [][2]float64{{84, 95}, {90, 98}, {96, 100}}
	rates := make([]float64, len(levels))
	for li, lvl := range levels {
		var cov bench.Coverage
		for tr := 0; tr < trials; tr++ {
			rng := src.Rand(5000 + tr)
			syn := estimator.NewSynopsis()
			if err := syn.AddDrawn(rel, int(frac*nRows), rng); err != nil {
				t.Fatal(err)
			}
			est, err := sampleCount(e, syn, estimator.Options{
				Variance:   estimator.VarAnalytic,
				Confidence: lvl,
			})
			if err != nil {
				t.Fatal(err)
			}
			cov.Observe(est.Lo, est.Hi, float64(actual))
		}
		rates[li] = cov.Rate()
		inBand(t, "coverage at nominal "+bench.Pct(100*lvl), cov.Rate(), bands[li][0], bands[li][1])
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] < rates[i-1] {
			t.Errorf("coverage not monotone in nominal level: %v", rates)
		}
	}
}

// TestCalibrationVarianceAgreement pins the replication machinery against
// the closed form: on the same join sample, the jackknife standard error
// must agree with the analytic one within a factor, and the split-sample
// one must sit in its known conservative band (each replicate joins only
// within its own group, losing the cross-group pairs, so it overstates a
// join's variance by a stable factor). A drift out of either band means a
// replication-weighting bug, not noise.
func TestCalibrationVarianceAgreement(t *testing.T) {
	const (
		nRows  = 6_000
		frac   = 0.08
		trials = 30
	)
	src := sampling.NewSource(19)
	r1, r2 := workload.JoinPair(src.Rand(0), workload.JoinPairSpec{
		Z1: 0.3, Z2: 0.3, Domain: nRows / 10, N1: nRows, N2: nRows,
		Correlation: workload.Independent,
	})
	join := algebra.Must(algebra.Join(algebra.BaseOf(r1), algebra.BaseOf(r2),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))

	methods := []struct {
		method estimator.VarianceMethod
		lo, hi float64
	}{
		{estimator.VarJackknife, 0.5, 2.0},
		{estimator.VarSplitSample, 1.0, 4.5},
	}
	for _, mc := range methods {
		method := mc.method
		ratios := make([]float64, 0, trials)
		for tr := 0; tr < trials; tr++ {
			rng := src.Rand(1000 + tr)
			syn := estimator.NewSynopsis()
			if err := syn.AddDrawn(r1, int(frac*nRows), rng); err != nil {
				t.Fatal(err)
			}
			if err := syn.AddDrawn(r2, int(frac*nRows), rng); err != nil {
				t.Fatal(err)
			}
			analytic, err := sampleCount(join, syn, estimator.Options{Variance: estimator.VarAnalytic})
			if err != nil {
				t.Fatal(err)
			}
			replicated, err := sampleCount(join, syn, estimator.Options{Variance: method, Seed: int64(tr)})
			if err != nil {
				t.Fatal(err)
			}
			if analytic.StdErr > 0 {
				ratios = append(ratios, replicated.StdErr/analytic.StdErr)
			}
		}
		if len(ratios) < trials/2 {
			t.Fatalf("%v: only %d usable trials", method, len(ratios))
		}
		mean := 0.0
		for _, r := range ratios {
			mean += r
		}
		mean /= float64(len(ratios))
		inBand(t, method.String()+" / analytic stderr ratio", mean, mc.lo, mc.hi)
	}
}
