package bench

import (
	"fmt"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/workload"
)

// T1Selection measures the selection estimator: average relative error and
// 95% CI coverage versus sampling fraction, across selectivities. The
// estimator is the SRSWOR scale-up with the exact hypergeometric-family
// variance; coverage should track the nominal level and error should decay
// as 1/√n.
func T1Selection(seed int64, scale Scale) *Table {
	const domain = 1_000_000
	N := scale.pick(20_000, 100_000)
	trials := scale.pick(25, 200)
	selectivities := []float64{0.001, 0.01, 0.1, 0.5}
	fractions := []float64{0.01, 0.02, 0.05, 0.10, 0.20}

	src := sampling.NewSource(seed)
	gen := src.Rand(0)
	rel := relation.New("R", relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt}))
	for i := 0; i < N; i++ {
		rel.MustAppend(relation.Tuple{relation.Int(int64(gen.Intn(domain)))})
	}
	cat := algebra.MapCatalog{"R": rel}

	tab := &Table{
		ID:      "T1",
		Title:   fmt.Sprintf("Selection estimator: ARE and 95%% CI coverage vs sampling fraction (N=%d, %d trials)", N, trials),
		Columns: []string{"selectivity", "fraction", "ARE", "bias", "coverage", "mean CI width"},
		Notes: []string{
			"Estimator: (N/n)·hits with the exact SRSWOR variance; CI via CLT.",
			"Error decays ~1/√n; coverage tracks the nominal 95% except at tiny hit counts.",
		},
	}
	for _, sel := range selectivities {
		threshold := int64(sel * domain)
		e := algebra.Must(algebra.Select(algebra.BaseOf(rel),
			algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(threshold)}))
		actual, err := algebra.Count(e, cat)
		if err != nil {
			panic(err)
		}
		for _, f := range fractions {
			var es ErrorStats
			var cov Coverage
			for tr := 0; tr < trials; tr++ {
				rng := src.Rand(1000 + tr)
				syn := estimator.NewSynopsis()
				n := int(f * float64(N))
				if err := syn.AddDrawn(rel, n, rng); err != nil {
					panic(err)
				}
				est, err := sampleCount(e, syn, estimator.Options{
					Variance: estimator.VarAnalytic,
				})
				if err != nil {
					panic(err)
				}
				es.Observe(est.Value, float64(actual))
				cov.Observe(est.Lo, est.Hi, float64(actual))
			}
			tab.AddRow(
				fmt.Sprintf("%.3f", sel),
				Pct(100*f),
				Pct(es.ARE()),
				Pct(es.Bias()),
				Pct(cov.Rate()),
				Num(cov.MeanWidth()),
			)
		}
	}
	return tab
}

// F2Coverage measures CI coverage and width against the nominal level for
// both a selection and a join, at several confidence levels and sampling
// fractions — the figure validating the CLT intervals.
func F2Coverage(seed int64, scale Scale) *Table {
	N := scale.pick(8_000, 40_000)
	trials := scale.pick(25, 200)
	levels := []float64{0.90, 0.95, 0.99}
	fractions := []float64{0.02, 0.05, 0.10}

	src := sampling.NewSource(seed + 2)
	gen := src.Rand(0)
	r1, r2 := workload.JoinPair(gen, workload.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: N / 20, N1: N, N2: N, Correlation: workload.Independent,
	})
	sel := algebra.Must(algebra.Select(algebra.BaseOf(r1),
		algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(int64(N / 80))}))
	join := algebra.Must(algebra.Join(algebra.BaseOf(r1), algebra.BaseOf(r2),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))
	cat := algebra.MapCatalog{"R1": r1, "R2": r2}

	tab := &Table{
		ID:      "F2",
		Title:   fmt.Sprintf("CI coverage and width vs nominal level (N=%d, %d trials)", N, trials),
		Columns: []string{"query", "fraction", "nominal", "coverage", "mean CI width"},
		Notes: []string{
			"Selection uses the exact SRSWOR variance; the join uses the unbiased two-sample closed form.",
			"Coverage should approach the nominal level as samples grow.",
		},
	}
	for qi, q := range []*algebra.Expr{sel, join} {
		name := []string{"selection", "join"}[qi]
		actual, err := algebra.Count(q, cat)
		if err != nil {
			panic(err)
		}
		for _, f := range fractions {
			for _, lvl := range levels {
				var cov Coverage
				for tr := 0; tr < trials; tr++ {
					rng := src.Rand(5000 + tr)
					syn := estimator.NewSynopsis()
					if err := syn.AddDrawn(r1, int(f*float64(r1.Len())), rng); err != nil {
						panic(err)
					}
					if qi == 1 {
						if err := syn.AddDrawn(r2, int(f*float64(r2.Len())), rng); err != nil {
							panic(err)
						}
					}
					est, err := sampleCount(q, syn, estimator.Options{
						Variance:   estimator.VarAnalytic,
						Confidence: lvl,
					})
					if err != nil {
						panic(err)
					}
					cov.Observe(est.Lo, est.Hi, float64(actual))
				}
				tab.AddRow(name, Pct(100*f), Pct(100*lvl), Pct(cov.Rate()), Num(cov.MeanWidth()))
			}
		}
	}
	return tab
}
