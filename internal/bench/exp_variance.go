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
	fraction := 0.05

	src := sampling.NewSource(seed + 50)
	gen := src.Rand(0)
	r1, r2 := workload.JoinPair(gen, workload.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: N / 20, N1: N, N2: N, Correlation: workload.Independent,
	})
	sel := algebra.Must(algebra.Select(algebra.BaseOf(r1),
		algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(int64(N / 100))}))
	join := algebra.Must(algebra.Join(algebra.BaseOf(r1), algebra.BaseOf(r2),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))
	union := algebra.Must(algebra.Union(algebra.BaseOf(r1), algebra.BaseOf(r2)))

	type cfg struct {
		query   string
		e       *algebra.Expr
		methods []estimator.VarianceMethod
	}
	cfgs := []cfg{
		{"selection", sel, []estimator.VarianceMethod{estimator.VarAnalytic, estimator.VarSplitSample, estimator.VarJackknife}},
		{"join", join, []estimator.VarianceMethod{estimator.VarAnalytic, estimator.VarSplitSample, estimator.VarJackknife}},
		{"union", union, []estimator.VarianceMethod{estimator.VarSplitSample, estimator.VarJackknife}},
	}

	tab := &Table{
		ID:      "T5",
		Title:   fmt.Sprintf("Variance-estimator quality: E[Var̂]/empirical variance (N=%d, f=%d%%, %d trials)", N, int(fraction*100), trials),
		Columns: []string{"query", "method", "E[Var̂]/Var", "empirical Var"},
		Notes: []string{
			"Ratio 1.0 is perfect. The closed forms are unbiased (ratio ≈ 1 up to trial noise); split-sample is a first-order 1/n approximation.",
			"The jackknife runs on every query: the single-pass engine derives all delete-one replicates from one enumeration, so it costs about as much as a point estimate.",
		},
	}
	for _, c := range cfgs {
		for _, m := range c.methods {
			var points stats.Welford
			var vars stats.Welford
			for i := 0; i < trials; i++ {
				rng := src.Rand(15000 + i)
				syn := estimator.NewSynopsis()
				if err := syn.AddDrawn(r1, int(fraction*float64(N)), rng); err != nil {
					panic(err)
				}
				if err := syn.AddDrawn(r2, int(fraction*float64(N)), rng); err != nil {
					panic(err)
				}
				est, err := sampleCount(c.e, syn, estimator.Options{
					Variance: m,
					Seed:     int64(i),
				})
				if err != nil {
					panic(err)
				}
				points.Add(est.Value)
				vars.Add(est.Variance)
			}
			emp := points.Variance()
			ratio := 0.0
			if emp > 0 {
				ratio = vars.Mean() / emp
			}
			tab.AddRow(c.query, m.String(), fmt.Sprintf("%.3f", ratio), Num(emp))
		}
	}
	return tab
}
