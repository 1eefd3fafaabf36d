package bench

import (
	"fmt"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/sampling"
	"relest/internal/stats"
	"relest/internal/workload"
)

// T2Join measures the equi-join size estimator across skew and correlation
// regimes: average relative error versus sampling fraction. The expected
// shape: error grows with skew, positive correlation is the easy case for
// sampling when heavy hitters are sampled, and small fractions on
// independent skewed data are where sampling struggles (the weakness the
// sketch literature later attacked).
func T2Join(seed int64, scale Scale) *Table {
	N := scale.pick(10_000, 50_000)
	domain := scale.pick(1_000, 10_000)
	trials := scale.pick(15, 50)
	skews := []float64{0, 0.5, 1.0}
	correlations := []workload.Correlation{workload.Positive, workload.Independent, workload.Negative}
	fractions := []float64{0.01, 0.02, 0.05, 0.10, 0.20}

	src := sampling.NewSource(seed + 10)
	tab := &Table{
		ID:      "T2",
		Title:   fmt.Sprintf("Join size estimator: ARE vs sampling fraction × skew × correlation (N=%d, domain=%d, %d trials)", N, domain, trials),
		Columns: []string{"z2", "correlation", "fraction", "ARE", "bias", "actual join"},
		Notes: []string{
			"R1 is Zipf(0.5); R2's skew and mapping correlation vary. Estimator: (N1N2/n1n2)·sample-join with unbiased closed-form variance.",
			"Bias stays near zero everywhere (the estimator is unbiased); ARE grows with skew and shrinks with fraction.",
		},
	}
	for _, z2 := range skews {
		for _, corr := range correlations {
			gen := src.Rand(int(z2*10) + int(corr)*100)
			r1, r2 := workload.JoinPair(gen, workload.JoinPairSpec{
				Z1: 0.5, Z2: z2, Domain: domain, N1: N, N2: N, Correlation: corr,
			})
			e := algebra.Must(algebra.Join(algebra.BaseOf(r1), algebra.BaseOf(r2),
				[]algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))
			actual := workload.ExactJoinSize(r1, "a", r2, "a")
			for _, f := range fractions {
				var es ErrorStats
				for tr := 0; tr < trials; tr++ {
					rng := src.Rand(7000 + tr)
					syn := estimator.NewSynopsis()
					if err := syn.AddDrawn(r1, int(f*float64(N)), rng); err != nil {
						panic(err)
					}
					if err := syn.AddDrawn(r2, int(f*float64(N)), rng); err != nil {
						panic(err)
					}
					est, err := sampleCount(e, syn, estimator.Options{Variance: estimator.VarNone})
					if err != nil {
						panic(err)
					}
					es.Observe(est.Value, actual)
				}
				tab.AddRow(
					fmt.Sprintf("%.1f", z2),
					corr.String(),
					Pct(100*f),
					Pct(es.ARE()),
					Pct(es.Bias()),
					Num(actual),
				)
			}
		}
	}
	return tab
}

// T7SelfJoin is the repeated-relation ablation: estimating |R ⋈_a R| with
// the falling-factorial pattern weights versus naively scaling the sample
// self-join count by (N/n)². The naive estimator is systematically biased
// (it treats the diagonal pairs as if they were sampled at rate (n/N)²,
// when a tuple joins with itself whenever it is sampled at all); the
// pattern weights remove the bias exactly.
func T7SelfJoin(seed int64, scale Scale) *Table {
	N := scale.pick(4_000, 20_000)
	domain := scale.pick(200, 1_000)
	trials := scale.pick(20, 100)
	skews := []float64{0.5, 1.0}
	fractions := []float64{0.02, 0.05, 0.10}

	src := sampling.NewSource(seed + 20)
	tab := &Table{
		ID:      "T7",
		Title:   fmt.Sprintf("Self-join: pattern-weighted vs naive (N/n)² scaling (N=%d, domain=%d, %d trials)", N, domain, trials),
		Columns: []string{"z", "fraction", "weighted ARE", "weighted bias", "naive ARE", "naive bias"},
		Notes: []string{
			"Naive bias is structural: diagonal (t,t) pairs are included with probability n/N, not (n/N)², so scaling by (N/n)² overcounts them by N/n.",
			"The falling-factorial weights assign N/n to diagonal pairs and (N)₂/(n)₂ to off-diagonal ones, restoring unbiasedness.",
		},
	}
	for _, z := range skews {
		gen := src.Rand(int(z * 100))
		r := workload.ZipfRelation(gen, "R", z, domain, N, workload.MapRandom)
		e := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(r),
			[]algebra.On{{Left: "a", Right: "a"}}, nil, "Rb"))
		actual := workload.ExactJoinSize(r, "a", r, "a")
		poly, err := algebra.Normalize(e)
		if err != nil {
			panic(err)
		}
		for _, f := range fractions {
			var weighted, naive ErrorStats
			n := int(f * float64(N))
			for tr := 0; tr < trials; tr++ {
				rng := src.Rand(9000 + tr)
				syn := estimator.NewSynopsis()
				if err := syn.AddDrawn(r, n, rng); err != nil {
					panic(err)
				}
				est, err := sampleCount(e, syn, estimator.Options{Variance: estimator.VarNone})
				if err != nil {
					panic(err)
				}
				weighted.Observe(est.Value, actual)
				// Naive: raw sample self-join count times (N/n)².
				inst, err := algebra.BindInstances(&poly.Terms[0], syn)
				if err != nil {
					panic(err)
				}
				c, err := poly.Terms[0].CountAssignments(inst)
				if err != nil {
					panic(err)
				}
				scaleUp := stats.FallingFactorialRatio(N, n, 1)
				naive.Observe(scaleUp*scaleUp*c, actual)
			}
			tab.AddRow(
				fmt.Sprintf("%.1f", z),
				Pct(100*f),
				Pct(weighted.ARE()),
				Pct(weighted.Bias()),
				Pct(naive.ARE()),
				Pct(naive.Bias()),
			)
		}
	}
	return tab
}
