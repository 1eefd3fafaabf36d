package bench

import (
	"fmt"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/workload"
)

// algebraJoin builds the standard single-attribute equi-join expression
// between two relations named R1 and R2 with an `a` column.
func algebraJoin(r1, r2 *relation.Relation) *algebra.Expr {
	return algebra.Must(algebra.Join(algebra.BaseOf(r1), algebra.BaseOf(r2),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "R2x"))
}

// F1Composite measures estimation error versus sampling fraction for a
// genuinely composite expression exercising selection, join and difference
// in one query:
//
//	(σ_{a<τ}(R1) ⋈_a R2) − (R3 ⋈_a R2)
//
// R3 shares half of R1's tuples, so the difference removes a real, sample-
// estimable part. The counting polynomial has three terms, one of which
// uses R2 twice — the full machinery in one expression.
func F1Composite(seed int64, scale Scale) *Table {
	N := scale.pick(4_000, 20_000)
	domain := scale.pick(400, 2_000)
	trials := scale.pick(15, 60)
	fractions := []float64{0.02, 0.05, 0.10, 0.20}

	src := sampling.NewSource(seed + 70)
	gen := src.Rand(0)
	r1 := workload.ZipfRelation(gen, "R1", 0.5, domain, N, workload.MapRandom)
	r2 := workload.ZipfRelation(gen, "R2", 0.5, domain, N, workload.MapRandom)
	// R3: half of R1's tuples plus fresh ones (ids disjoint from R1's
	// second half), same layout.
	r3 := relation.New("R3", workload.JoinSchema())
	r1.EachRow(func(i int, row relation.Row) bool {
		if i%2 == 0 {
			r3.AppendFrom(r1, i)
		}
		return true
	})
	for i := 0; i < N/2; i++ {
		r3.MustAppend(relation.Tuple{
			relation.Int(int64(gen.Intn(domain))),
			relation.Int(int64(10*N + i)),
		})
	}
	r3 = r3.Subset("R3", gen.Perm(r3.Len()))

	tau := relation.Int(int64(domain / 4))
	left := algebra.Must(algebra.Join(
		algebra.Must(algebra.Select(algebra.BaseOf(r1), algebra.Cmp{Col: "a", Op: algebra.LT, Val: tau})),
		algebra.BaseOf(r2), []algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))
	right := algebra.Must(algebra.Join(algebra.BaseOf(r3), algebra.BaseOf(r2),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))
	e := algebra.Must(algebra.Diff(left, right))

	cat := algebra.MapCatalog{"R1": r1, "R2": r2, "R3": r3}
	actual, err := algebra.Count(e, cat)
	if err != nil {
		panic(err)
	}
	poly, err := algebra.Normalize(e)
	if err != nil {
		panic(err)
	}

	tab := &Table{
		ID:      "F1",
		Title:   fmt.Sprintf("Composite query (σ(R1)⋈R2) − (R3⋈R2): error vs sampling fraction (N=%d, %d trials, %d polynomial terms)", N, trials, poly.NumTerms()),
		Columns: []string{"fraction", "ARE", "bias", "mean estimate", "actual"},
		Notes: []string{
			"The difference expands via |A−B| = |A| − |A∩B|; the ∩ term uses R2 in two occurrences, exercising the falling-factorial pattern weights inside a composite query.",
			"Bias stays near zero at every fraction (unbiasedness is not asymptotic).",
		},
	}
	for _, f := range fractions {
		var es ErrorStats
		sum := 0.0
		for tr := 0; tr < trials; tr++ {
			rng := src.Rand(19000 + tr)
			syn := estimator.NewSynopsis()
			for _, r := range []*relation.Relation{r1, r2, r3} {
				if err := syn.AddDrawn(r, int(f*float64(r.Len())), rng); err != nil {
					panic(err)
				}
			}
			est, err := sampleCount(e, syn, estimator.Options{Variance: estimator.VarNone})
			if err != nil {
				panic(err)
			}
			es.Observe(est.Value, float64(actual))
			sum += est.Value
		}
		tab.AddRow(
			Pct(100*f),
			Pct(es.ARE()),
			Pct(es.Bias()),
			Num(sum/float64(trials)),
			Num(float64(actual)),
		)
	}
	return tab
}
