package bench

import (
	"fmt"
	"math/rand"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/workload"
)

// overlappingPair builds two duplicate-free relations of JoinSchema layout
// sharing the given fraction of tuples.
func overlappingPair(rng *rand.Rand, n int, overlap float64) (*relation.Relation, *relation.Relation) {
	r1 := relation.New("R1", workload.JoinSchema())
	r2 := relation.New("R2", workload.JoinSchema())
	shared := int(overlap * float64(n))
	for i := 0; i < n; i++ {
		t := relation.Tuple{relation.Int(int64(rng.Intn(1000))), relation.Int(int64(i))}
		r1.MustAppend(t)
		if i < shared {
			r2.MustAppend(t)
		}
	}
	for i := 0; i < n-shared; i++ {
		t := relation.Tuple{relation.Int(int64(rng.Intn(1000))), relation.Int(int64(n + i))}
		r2.MustAppend(t)
	}
	return r1.Subset("R1", rng.Perm(r1.Len())), r2.Subset("R2", rng.Perm(r2.Len()))
}

// T3SetOps compares the paper's identity-based set-operation estimators
// (|A∪B| = |A|+|B|−|A∩B| etc., each piece estimated unbiasedly) against the
// naive approach of evaluating the set operation on the samples and scaling
// by N/n. The naive estimator is badly biased for ∩ and − because a match
// requires both copies of a shared tuple to be sampled (probability f²,
// scaled only by 1/f); the identity-based estimator is unbiased.
func T3SetOps(seed int64, scale Scale) *Table {
	N := scale.pick(4_000, 20_000)
	trials := scale.pick(20, 100)
	overlaps := []float64{0.1, 0.5, 0.9}
	const fraction = 0.10

	src := sampling.NewSource(seed + 30)
	tab := &Table{
		ID:      "T3",
		Title:   fmt.Sprintf("Set operations: identity-based (unbiased) vs naive scaled sample op (N=%d, f=%d%%, %d trials)", N, int(fraction*100), trials),
		Columns: []string{"op", "overlap", "actual", "paper ARE", "paper bias", "naive ARE", "naive bias"},
		Notes: []string{
			"Naive: |op(s₁,s₂)|·(N/n). For ∩ and − the shared-tuple match probability is f², so the naive estimator is biased by roughly a factor f for ∩ (and correspondingly for −/∪).",
			"The identity-based estimators stay unbiased at every overlap.",
		},
	}
	for _, ov := range overlaps {
		gen := src.Rand(int(ov * 100))
		r1, r2 := overlappingPair(gen, N, ov)
		cat := algebra.MapCatalog{"R1": r1, "R2": r2}
		br1, br2 := algebra.BaseOf(r1), algebra.BaseOf(r2)
		ops := []struct {
			name string
			e    *algebra.Expr
		}{
			{"union", algebra.Must(algebra.Union(br1, br2))},
			{"intersect", algebra.Must(algebra.Intersect(br1, br2))},
			{"diff", algebra.Must(algebra.Diff(br1, br2))},
		}
		n := int(fraction * float64(N))
		for _, op := range ops {
			actual, err := algebra.Count(op.e, cat)
			if err != nil {
				panic(err)
			}
			var paper, naive ErrorStats
			for tr := 0; tr < trials; tr++ {
				rng := src.Rand(11000 + tr)
				syn := estimator.NewSynopsis()
				if err := syn.AddDrawn(r1, n, rng); err != nil {
					panic(err)
				}
				if err := syn.AddDrawn(r2, n, rng); err != nil {
					panic(err)
				}
				est, err := sampleCount(op.e, syn, estimator.Options{Variance: estimator.VarNone})
				if err != nil {
					panic(err)
				}
				paper.Observe(est.Value, float64(actual))
				// Naive: run the exact evaluator over the samples, scale.
				s1, _ := syn.Relation("R1")
				s2, _ := syn.Relation("R2")
				sampleCount, err := algebra.Count(op.e, algebra.MapCatalog{"R1": s1, "R2": s2})
				if err != nil {
					panic(err)
				}
				naive.Observe(float64(sampleCount)*float64(N)/float64(n), float64(actual))
			}
			tab.AddRow(
				op.name,
				fmt.Sprintf("%.1f", ov),
				Num(float64(actual)),
				Pct(paper.ARE()),
				Pct(paper.Bias()),
				Pct(naive.ARE()),
				Pct(naive.Bias()),
			)
		}
	}
	return tab
}
