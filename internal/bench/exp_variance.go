package bench

import (
	"fmt"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/stats"
	"relest/internal/workload"
)

// T5Variance measures the quality of each variance estimator: the ratio of
// the mean estimated variance to the empirical variance of the point
// estimate across trials. A perfect variance estimator gives ratio 1.0; the
// closed forms (analytic) are exactly unbiased, split-sample is a
// first-order approximation, and the jackknife is asymptotically correct.
func T5Variance(seed int64, scale Scale) *Table {
	N := scale.pick(4_000, 20_000)
	trials := scale.pick(40, 300)
	fix := newT5Fixture(seed, N)
	sel := algebra.Must(algebra.Select(algebra.BaseOf(fix.r1),
		algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(int64(N / 100))}))
	join := algebra.Must(algebra.Join(algebra.BaseOf(fix.r1), algebra.BaseOf(fix.r2),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))
	union := algebra.Must(algebra.Union(algebra.BaseOf(fix.r1), algebra.BaseOf(fix.r2)))

	type cfg struct {
		query   string
		e       *algebra.Expr
		methods []estimator.VarianceMethod
	}
	cfgs := []cfg{
		{"selection", sel, []estimator.VarianceMethod{estimator.VarAnalytic, estimator.VarSplitSample, estimator.VarJackknife}},
		{"join", join, []estimator.VarianceMethod{estimator.VarAnalytic, estimator.VarSplitSample, estimator.VarJackknife}},
		{"union", union, []estimator.VarianceMethod{estimator.VarSplitSample, estimator.VarJackknife}},
		{"union-select-join", fix.unionSelectJoin(), []estimator.VarianceMethod{estimator.VarAuto, estimator.VarSplitSample}},
	}

	tab := &Table{
		ID:      "T5",
		Title:   fmt.Sprintf("Variance-estimator quality: E[Var̂]/empirical variance (N=%d, f=%d%%, %d trials)", N, int(t5Fraction*100), trials),
		Columns: []string{"query", "method", "E[Var̂]/Var", "empirical Var"},
		Notes: []string{
			"Ratio 1.0 is perfect. The closed forms are unbiased (ratio ≈ 1 up to trial noise); split-sample is a first-order 1/n approximation.",
			"The jackknife runs on every query: the single-pass engine derives all delete-one replicates from one enumeration, so it costs about as much as a point estimate.",
			"union is R1 ∪ R2 over two relations: no term repeats a relation, so fusion leaves its three terms to split-sample. union-select-join is (σ₁(R1) ∪ σ₂(R1)) ⋈ R2, which fusion makes one weighted join term: auto resolves to its closed form (the method after the arrow).",
		},
	}
	for _, c := range cfgs {
		for _, m := range c.methods {
			r := fix.varianceRatio(c.e, m, trials)
			method := m.String()
			if m == estimator.VarAuto {
				method += "→" + r.method.String()
			}
			tab.AddRow(c.query, method, fmt.Sprintf("%.3f", r.ratio), Num(r.empirical))
		}
	}
	return tab
}

// t5Fraction is T5's sampling fraction for both relations.
const t5Fraction = 0.05

// t5Fixture is T5's data: a Zipf(0.5) join pair of N rows each over a
// domain of N/20 join values, independent mappings, and the source every
// trial draws its samples from.
type t5Fixture struct {
	N      int
	r1, r2 *relation.Relation
	src    *sampling.Source
}

func newT5Fixture(seed int64, N int) *t5Fixture {
	src := sampling.NewSource(seed + 50)
	r1, r2 := workload.JoinPair(src.Rand(0), workload.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: N / 20, N1: N, N2: N, Correlation: workload.Independent,
	})
	return &t5Fixture{N: N, r1: r1, r2: r2, src: src}
}

// unionSelectJoin is (σ₁(R1) ∪ σ₂(R1)) ⋈ R2 with overlapping selections
// covering three quarters of the domain: a union over one duplicate-free
// relation, which fusion makes one weighted join term with a closed form.
func (f *t5Fixture) unionSelectJoin() *algebra.Expr {
	d := int64(f.N / 20)
	lt := func(v int64) algebra.Cmp { return algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(v)} }
	s1 := algebra.Must(algebra.Select(algebra.BaseOf(f.r1), lt(d/2)))
	s2 := algebra.Must(algebra.Select(algebra.BaseOf(f.r1), algebra.And{
		algebra.Cmp{Col: "a", Op: algebra.GE, Val: relation.Int(d / 4)}, lt(3 * d / 4)}))
	return algebra.Must(algebra.Join(algebra.Must(algebra.Union(s1, s2)), algebra.BaseOf(f.r2),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))
}

// t5Ratio is one T5 cell: the mean variance estimate over the empirical
// variance of the point estimates, that variance, and the method the last
// trial's variance resolved to.
type t5Ratio struct {
	ratio, empirical float64
	method           estimator.VarianceMethod
}

// varianceRatio estimates COUNT(e) under variance method m over trials
// independent sample pairs, trial i drawing from stream 15000+i.
func (f *t5Fixture) varianceRatio(e *algebra.Expr, m estimator.VarianceMethod, trials int) t5Ratio {
	var points, vars stats.Welford
	var out t5Ratio
	n := int(t5Fraction * float64(f.N))
	for i := 0; i < trials; i++ {
		rng := f.src.Rand(15000 + i)
		syn := estimator.NewSynopsis()
		if err := syn.AddDrawn(f.r1, n, rng); err != nil {
			panic(err)
		}
		if err := syn.AddDrawn(f.r2, n, rng); err != nil {
			panic(err)
		}
		est, err := sampleCount(e, syn, estimator.Options{Variance: m, Seed: int64(i)})
		if err != nil {
			panic(err)
		}
		points.Add(est.Value)
		vars.Add(est.Variance)
		out.method = est.VarianceMethod
	}
	out.empirical = points.Variance()
	if out.empirical > 0 {
		out.ratio = vars.Mean() / out.empirical
	}
	return out
}
