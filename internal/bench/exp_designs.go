package bench

import (
	"fmt"
	"sort"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/stats"
	"relest/internal/workload"
)

// A1Stratified is the stratified-vs-SRSWOR ablation: at equal sample size,
// how much variance does stratifying by the selection attribute remove?
// Strata aligned with the predicate make the estimator near-exact; strata
// orthogonal to it are a no-op — exactly the classical theory, measured.
func A1Stratified(seed int64, scale Scale) *Table {
	N := scale.pick(20_000, 100_000)
	trials := scale.pick(40, 200)
	sampleN := scale.pick(200, 1_000)
	const strata = 16

	src := sampling.NewSource(seed + 100)
	gen := src.Rand(0)
	// Attribute a: mildly skewed over 16 value groups; attribute b:
	// independent noise.
	rel := relation.New("R", relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindInt},
	))
	for g, c := range workload.ZipfFrequencies(0.7, strata, N) {
		for i := 0; i < c; i++ {
			rel.MustAppend(relation.Tuple{
				relation.Int(int64(g)),
				relation.Int(int64(gen.Intn(1_000_000))),
			})
		}
	}
	shuffled := rel.Subset("R", gen.Perm(rel.Len()))

	queries := []struct {
		name string
		e    *algebra.Expr
	}{
		{"aligned (a < 4)", algebra.Must(algebra.Select(algebra.BaseOf(shuffled),
			algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(4)}))},
		{"orthogonal (b < 100k)", algebra.Must(algebra.Select(algebra.BaseOf(shuffled),
			algebra.Cmp{Col: "b", Op: algebra.LT, Val: relation.Int(100_000)}))},
	}
	tab := &Table{
		ID:      "A1",
		Title:   fmt.Sprintf("Ablation: stratified vs plain SRSWOR selection estimation (N=%d, n=%d, %d trials)", N, sampleN, trials),
		Columns: []string{"query", "design", "ARE", "empirical StdDev"},
		Notes: []string{
			"Stratified by the 16 values of attribute a, proportional allocation.",
			"Aligned predicates become near-exact under stratification (within-stratum variance ~0); orthogonal predicates gain nothing — the design knob, quantified.",
		},
	}
	cat := algebra.MapCatalog{"R": shuffled}
	for _, q := range queries {
		actual, err := algebra.Count(q.e, cat)
		if err != nil {
			panic(err)
		}
		for _, design := range []string{"srswor", "stratified"} {
			var es ErrorStats
			var points stats.Welford
			for tr := 0; tr < trials; tr++ {
				rng := src.Rand(27000 + tr)
				syn := estimator.NewSynopsis()
				var err error
				if design == "srswor" {
					err = syn.AddDrawn(shuffled, sampleN, rng)
				} else {
					err = syn.AddDrawnStratified(shuffled, func(row relation.Row) int {
						return int(row.Value(0).Int64())
					}, sampleN, rng)
				}
				if err != nil {
					panic(err)
				}
				est, err := sampleCount(q.e, syn, estimator.Options{Variance: estimator.VarNone})
				if err != nil {
					panic(err)
				}
				es.Observe(est.Value, float64(actual))
				points.Add(est.Value)
			}
			tab.AddRow(q.name, design, Pct(es.ARE()), Num(points.StdDev()))
		}
	}
	return tab
}

// A2PageSampling is the physical-design ablation: page-level (cluster)
// sampling versus tuple-level SRSWOR at the same number of sampled tuples,
// for data laid out randomly versus clustered by the attribute. Clustered
// layouts inflate the page design's variance (tuples within a page are
// alike), while random layouts make pages as good as tuples — at a
// fraction of the I/O.
func A2PageSampling(seed int64, scale Scale) *Table {
	N := scale.pick(20_000, 100_000)
	trials := scale.pick(40, 200)
	pageSize := 50
	pages := scale.pick(8, 40) // sampled pages → n = pages·pageSize tuples

	src := sampling.NewSource(seed + 110)
	gen := src.Rand(0)

	// Attribute values: 100 groups, mildly skewed.
	var vals []int64
	for g, c := range workload.ZipfFrequencies(0.5, 100, N) {
		for i := 0; i < c; i++ {
			vals = append(vals, int64(g))
		}
	}
	build := func(name string, order []int) *relation.Relation {
		r := relation.New(name, relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt}))
		for _, i := range order {
			r.MustAppend(relation.Tuple{relation.Int(vals[i])})
		}
		return r
	}
	randomOrder := gen.Perm(N)
	clusteredOrder := make([]int, N)
	for i := range clusteredOrder {
		clusteredOrder[i] = i
	}
	sort.SliceStable(clusteredOrder, func(i, j int) bool {
		return vals[clusteredOrder[i]] < vals[clusteredOrder[j]]
	})

	tab := &Table{
		ID:      "A2",
		Title:   fmt.Sprintf("Ablation: page-level vs tuple-level sampling at equal sampled tuples (N=%d, page=%d rows, %d pages, %d trials)", N, pageSize, pages, trials),
		Columns: []string{"layout", "design", "ARE", "I/O units touched"},
		Notes: []string{
			"Query: COUNT(σ_{a<10}). Equal sampled tuples: n = pages × pageSize for both designs.",
			"Tuple SRSWOR touches one page per sampled tuple in the worst case; page sampling touches exactly `pages` pages — the I/O argument for sampling physical blocks, paid for in variance only when the layout correlates with the attribute.",
		},
	}
	for _, layout := range []struct {
		name  string
		order []int
	}{{"random", randomOrder}, {"value-clustered", clusteredOrder}} {
		rel := build("R", layout.order)
		e := algebra.Must(algebra.Select(algebra.BaseOf(rel),
			algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(10)}))
		actual, err := algebra.Count(e, algebra.MapCatalog{"R": rel})
		if err != nil {
			panic(err)
		}
		n := pages * pageSize
		for _, design := range []string{"tuple", "page"} {
			var es ErrorStats
			for tr := 0; tr < trials; tr++ {
				rng := src.Rand(29000 + tr)
				syn := estimator.NewSynopsis()
				var err error
				if design == "tuple" {
					err = syn.AddDrawn(rel, n, rng)
				} else {
					err = syn.AddDrawnPages(rel, pageSize, pages, rng)
				}
				if err != nil {
					panic(err)
				}
				est, err := sampleCount(e, syn, estimator.Options{Variance: estimator.VarNone})
				if err != nil {
					panic(err)
				}
				es.Observe(est.Value, float64(actual))
			}
			io := fmt.Sprintf("%d pages", pages)
			if design == "tuple" {
				io = fmt.Sprintf("up to %d pages", n)
			}
			tab.AddRow(layout.name, design, Pct(es.ARE()), io)
		}
	}
	return tab
}
