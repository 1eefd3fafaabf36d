package estimator

import (
	"math"
	"testing"

	"relest/internal/algebra"
	"relest/internal/relation"
	"relest/internal/stats"
)

// --- page-level (cluster) sampling --------------------------------------

// TestPageSamplingUnbiasedExhaustive enumerates every page sample of a tiny
// relation (including a short last page) and checks that selection and join
// estimates are exactly unbiased under the page design.
func TestPageSamplingUnbiasedExhaustive(t *testing.T) {
	// 7 rows, pageSize 2 → 4 pages, the last short.
	r := intRelation("R", []string{"a"}, [][]int64{{1}, {1}, {2}, {3}, {2}, {5}, {1}})
	s := intRelation("S", []string{"a"}, [][]int64{{1}, {2}, {9}, {1}})
	cat := algebra.MapCatalog{"R": r, "S": s}
	br, bs := algebra.BaseOf(r), algebra.BaseOf(s)

	sel := algebra.Must(algebra.Select(br, algebra.Cmp{Col: "a", Op: algebra.LE, Val: relation.Int(2)}))
	join := algebra.Must(algebra.Join(br, bs, []algebra.On{{Left: "a", Right: "a"}}, nil, "S"))

	// Selection: R page-sampled, 2 of 4 pages.
	{
		want, _ := algebra.Count(sel, cat)
		const pageSize, M, m = 2, 4, 2
		var mean stats.Welford
		subsets(M, m, func(pages []int) {
			syn := pageSynopsisFor(t, r, pageSize, pages)
			est, err := countOf(sel, syn, Options{Variance: VarNone})
			if err != nil {
				t.Fatal(err)
			}
			mean.Add(est.Value)
		})
		if !almostEqual(mean.Mean(), float64(want), 1e-9) {
			t.Errorf("page selection: E[est] = %v, exact %d", mean.Mean(), want)
		}
	}
	// Join: R page-sampled (2 of 4 pages), S tuple-sampled (2 of 4 rows).
	{
		want, _ := algebra.Count(join, cat)
		var mean stats.Welford
		subsets(4, 2, func(pages []int) {
			pagesCopy := append([]int{}, pages...)
			subsets(s.Len(), 2, func(srows []int) {
				syn := pageSynopsisFor(t, r, 2, pagesCopy)
				if err := syn.AddSample(s.Subset("S", srows), s.Len()); err != nil {
					t.Fatal(err)
				}
				est, err := countOf(join, syn, Options{Variance: VarNone})
				if err != nil {
					t.Fatal(err)
				}
				mean.Add(est.Value)
			})
		})
		if !almostEqual(mean.Mean(), float64(want), 1e-9) {
			t.Errorf("page join: E[est] = %v, exact %d", mean.Mean(), want)
		}
	}
}

// pageSynopsisFor builds a synopsis with a deterministic page sample: the
// given page ids of the relation at the given page size.
func pageSynopsisFor(t *testing.T, base *relation.Relation, pageSize int, pages []int) *Synopsis {
	t.Helper()
	syn := NewSynopsis()
	M := (base.Len() + pageSize - 1) / pageSize
	rs := &relSynopsis{name: base.Name(), N: base.Len(), M: M, pageSize: pageSize, base: base}
	rs.addUnits(pages)
	syn.rels[base.Name()] = rs
	return syn
}

// TestPageVarianceUnbiasedExhaustive: the ultimate-cluster variance formula
// must be unbiased over all page samples.
func TestPageVarianceUnbiasedExhaustive(t *testing.T) {
	r := intRelation("R", []string{"a"}, [][]int64{{1}, {1}, {2}, {3}, {2}, {5}, {1}, {2}})
	sel := algebra.Must(algebra.Select(algebra.BaseOf(r), algebra.Cmp{Col: "a", Op: algebra.LE, Val: relation.Int(2)}))
	const pageSize, M, m = 2, 4, 2
	var ests, vars stats.Welford
	subsets(M, m, func(pages []int) {
		syn := pageSynopsisFor(t, r, pageSize, pages)
		est, err := countOf(sel, syn, Options{Variance: VarAnalytic})
		if err != nil {
			t.Fatal(err)
		}
		ests.Add(est.Value)
		vars.Add(est.Variance)
	})
	if !almostEqual(vars.Mean(), ests.PopVariance(), 1e-9) {
		t.Errorf("E[Var̂] = %v, true variance %v", vars.Mean(), ests.PopVariance())
	}
}

func TestPageSamplingAPI(t *testing.T) {
	r := intRelation("R", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}, {5}, {6}, {7}})
	syn := NewSynopsis()
	if err := syn.AddDrawnPages(r, 3, 2, testRand(1)); err != nil {
		t.Fatal(err)
	}
	ps, ok := syn.Design("R")
	if !ok || ps != 3 {
		t.Errorf("design %d %v", ps, ok)
	}
	n, _ := syn.SampleSize("R")
	if n < 4 || n > 6 { // 2 pages of ≤3 rows, one may be the short page
		t.Errorf("sample size %d", n)
	}
	// Self-join over a page sample must be refused.
	e := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(r),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))
	if _, err := countOf(e, syn, Options{Variance: VarNone}); err == nil {
		t.Error("repeated relation over page sample should fail")
	}
	// Distinct over a page sample must be refused.
	if _, err := Distinct(syn, "R", []string{"a"}, DistinctGEE); err == nil {
		t.Error("distinct over page sample should fail")
	}
	// Page sample can be extended (by whole pages).
	if err := syn.ExtendSample("R", 1, testRand(2)); err != nil {
		t.Fatal(err)
	}
	if n, _ := syn.SampleSize("R"); n != 7 {
		t.Errorf("after extension n=%d, want census 7", n)
	}
	// Validation.
	if err := syn.AddDrawnPages(r, 0, 1, testRand(3)); err == nil {
		t.Error("page size 0 should fail")
	}
	syn2 := NewSynopsis()
	if err := syn2.AddDrawnPages(r, 2, 99, testRand(3)); err == nil {
		t.Error("too many pages should fail")
	}
}

// --- stratified sampling -------------------------------------------------

// TestStratifiedUnbiasedExhaustive enumerates every stratified sample
// (per-stratum subsets) and checks exact unbiasedness of the
// Horvitz–Thompson weighted estimator.
func TestStratifiedUnbiasedExhaustive(t *testing.T) {
	// Stratum 0: a < 10 (3 rows); stratum 1: a ≥ 10 (4 rows).
	r := intRelation("R", []string{"a"}, [][]int64{{1}, {2}, {3}, {10}, {11}, {12}, {13}})
	sel := algebra.Must(algebra.Select(algebra.BaseOf(r), algebra.Cmp{Col: "a", Op: algebra.LE, Val: relation.Int(11)}))
	want, _ := algebra.Count(sel, algebra.MapCatalog{"R": r})

	strat0 := []int{0, 1, 2}
	strat1 := []int{3, 4, 5, 6}
	const n0, n1 = 2, 2
	var mean stats.Welford
	subsets(len(strat0), n0, func(s0 []int) {
		s0c := append([]int{}, s0...)
		subsets(len(strat1), n1, func(s1 []int) {
			syn := stratifiedSynopsisFor(t, r, [][]int{strat0, strat1}, [][]int{s0c, s1})
			est, err := countOf(sel, syn, Options{Variance: VarNone})
			if err != nil {
				t.Fatal(err)
			}
			mean.Add(est.Value)
		})
	})
	if !almostEqual(mean.Mean(), float64(want), 1e-9) {
		t.Errorf("stratified: E[est] = %v, exact %d", mean.Mean(), want)
	}
}

// TestStratifiedWithRepeatedRelationUnbiasedExhaustive mixes the two
// non-constant weights in one term: R stratified (Horvitz–Thompson per-row
// weights, unequal sampling fractions) joined with S twice (falling-
// factorial pattern weights). Every relation's factor must come from its
// own design for COUNT and SUM to stay unbiased.
func TestStratifiedWithRepeatedRelationUnbiasedExhaustive(t *testing.T) {
	r := intRelation("R", []string{"a"}, [][]int64{{1}, {2}, {1}, {2}, {1}, {3}, {1}})
	s := intRelation("S", []string{"a", "v"}, [][]int64{{1, 5}, {2, 7}, {1, 11}, {3, 2}})
	cat := algebra.MapCatalog{"R": r, "S": s}
	br, bs := algebra.BaseOf(r), algebra.BaseOf(s)
	rs := algebra.Must(algebra.Join(br, bs, []algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
	rss := algebra.Must(algebra.Join(rs, bs, []algebra.On{{Left: "a", Right: "a"}}, nil, "S2"))
	wantCount, err := algebra.Count(rss, cat)
	if err != nil {
		t.Fatal(err)
	}
	poly, err := algebra.Normalize(rss)
	if err != nil {
		t.Fatal(err)
	}
	full := NewSynopsis() // census: the SUM estimator is exact on it
	for _, b := range []*relation.Relation{r, s} {
		if err := full.AddSample(b.Clone(b.Name()), b.Len()); err != nil {
			t.Fatal(err)
		}
	}
	wantSum, err := sumOf(rss, "S2.v", full, Options{Variance: VarNone})
	if err != nil {
		t.Fatal(err)
	}
	if poly.MaxOccurrences() != 2 || wantCount == 0 {
		t.Fatalf("fixture: max occurrences %d, exact count %d", poly.MaxOccurrences(), wantCount)
	}

	strata := [][]int{{0, 1, 2}, {3, 4, 5, 6}}
	var counts, sums stats.Welford
	subsets(3, 2, func(p0 []int) {
		p0c := append([]int{}, p0...)
		subsets(4, 2, func(p1 []int) {
			p1c := append([]int{}, p1...)
			subsets(s.Len(), 3, func(srows []int) {
				syn := stratifiedSynopsisFor(t, r, strata, [][]int{p0c, p1c})
				if err := syn.AddSample(s.Subset("S", srows), s.Len()); err != nil {
					t.Fatal(err)
				}
				c, err := countOf(rss, syn, Options{Variance: VarNone})
				if err != nil {
					t.Fatal(err)
				}
				v, err := sumOf(rss, "S2.v", syn, Options{Variance: VarNone})
				if err != nil {
					t.Fatal(err)
				}
				counts.Add(c.Value)
				sums.Add(v.Value)
			})
		})
	})
	if !almostEqual(counts.Mean(), float64(wantCount), 1e-9) {
		t.Errorf("E[COUNT estimate] = %v, exact %d", counts.Mean(), wantCount)
	}
	if !almostEqual(sums.Mean(), wantSum.Value, 1e-9) {
		t.Errorf("E[SUM estimate] = %v, exact %v", sums.Mean(), wantSum.Value)
	}
}

// stratifiedSynopsisFor builds a synopsis with a deterministic stratified
// sample: strata gives population row ids per stratum; picks gives indices
// into each stratum to sample.
func stratifiedSynopsisFor(t *testing.T, base *relation.Relation, strata [][]int, picks [][]int) *Synopsis {
	t.Helper()
	syn := NewSynopsis()
	rs := &relSynopsis{name: base.Name(), N: base.Len(), M: base.Len()}
	var positions []int
	for si, stratumRows := range strata {
		st := stratumInfo{Nh: len(stratumRows)}
		for _, p := range picks[si] {
			st.units = append(st.units, len(positions))
			positions = append(positions, stratumRows[p])
		}
		rs.strata = append(rs.strata, st)
	}
	rs.sample = base.Subset(base.Name(), positions)
	rs.n = rs.sample.Len()
	rs.m = rs.n
	syn.rels[base.Name()] = rs
	return syn
}

// TestStratifiedVarianceUnbiasedExhaustive: the stratified closed-form
// variance must average to the estimator's true variance.
func TestStratifiedVarianceUnbiasedExhaustive(t *testing.T) {
	r := intRelation("R", []string{"a"}, [][]int64{{1}, {2}, {3}, {10}, {11}, {12}, {13}})
	sel := algebra.Must(algebra.Select(algebra.BaseOf(r), algebra.Cmp{Col: "a", Op: algebra.LE, Val: relation.Int(11)}))
	strat0 := []int{0, 1, 2}
	strat1 := []int{3, 4, 5, 6}
	var ests, vars stats.Welford
	subsets(len(strat0), 2, func(s0 []int) {
		s0c := append([]int{}, s0...)
		subsets(len(strat1), 2, func(s1 []int) {
			syn := stratifiedSynopsisFor(t, r, [][]int{strat0, strat1}, [][]int{s0c, s1})
			est, err := countOf(sel, syn, Options{Variance: VarAnalytic})
			if err != nil {
				t.Fatal(err)
			}
			ests.Add(est.Value)
			vars.Add(est.Variance)
		})
	})
	if !almostEqual(vars.Mean(), ests.PopVariance(), 1e-9) {
		t.Errorf("E[Var̂] = %v, true variance %v", vars.Mean(), ests.PopVariance())
	}
}

// TestStratificationReducesVariance demonstrates the design's purpose: with
// strata aligned to the selection attribute, the stratified estimator's
// true variance is far below plain SRSWOR at equal sample size.
func TestStratificationReducesVariance(t *testing.T) {
	// 1000 rows: a = i/100 (10 homogeneous strata of 100).
	rows := make([][]int64, 1000)
	for i := range rows {
		rows[i] = []int64{int64(i / 100)}
	}
	r := intRelation("R", []string{"a"}, rows)
	sel := algebra.Must(algebra.Select(algebra.BaseOf(r), algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(3)}))
	const trials, n = 300, 50
	var plain, strat stats.Welford
	for tr := 0; tr < trials; tr++ {
		rng := testRand(int64(1000 + tr))
		syn := NewSynopsis()
		if err := syn.AddDrawn(r, n, rng); err != nil {
			t.Fatal(err)
		}
		est, err := countOf(sel, syn, Options{Variance: VarNone})
		if err != nil {
			t.Fatal(err)
		}
		plain.Add(est.Value)

		syn2 := NewSynopsis()
		err = syn2.AddDrawnStratified(r, func(row relation.Row) int {
			return int(row.Value(0).Int64())
		}, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		est2, err := countOf(sel, syn2, Options{Variance: VarNone})
		if err != nil {
			t.Fatal(err)
		}
		strat.Add(est2.Value)
	}
	// Perfectly aligned strata make the stratified estimator exact.
	if strat.Variance() > 1e-9 {
		t.Errorf("aligned stratification should be exact; variance %v", strat.Variance())
	}
	if plain.Variance() < 100 {
		t.Errorf("plain SRSWOR variance suspiciously small: %v", plain.Variance())
	}
	if math.Abs(strat.Mean()-300) > 1e-6 {
		t.Errorf("stratified mean %v, want 300", strat.Mean())
	}
}

func TestStratifiedAPIAndGuards(t *testing.T) {
	r := intRelation("R", []string{"a", "id"}, func() [][]int64 {
		rows := make([][]int64, 200)
		for i := range rows {
			rows[i] = []int64{int64(i % 4), int64(i)}
		}
		return rows
	}())
	syn := NewSynopsis()
	err := syn.AddDrawnStratified(r, func(row relation.Row) int { return int(row.Value(0).Int64()) }, 40, testRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := syn.SampleSize("R"); n < 40 || n > 48 {
		t.Errorf("stratified sample size %d", n)
	}
	// Self-join refused.
	e := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(r),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))
	if _, err := countOf(e, syn, Options{Variance: VarNone}); err == nil {
		t.Error("repeated relation over stratified sample should fail")
	}
	// Distinct refused.
	if _, err := Distinct(syn, "R", []string{"a"}, DistinctGEE); err == nil {
		t.Error("distinct over stratified sample should fail")
	}
	// Extension refused.
	if err := syn.ExtendSample("R", 5, testRand(6)); err == nil {
		t.Error("stratified extension should fail")
	}
	// Jackknife refused.
	sel := algebra.Must(algebra.Select(algebra.BaseOf(r), algebra.Cmp{Col: "a", Op: algebra.EQ, Val: relation.Int(1)}))
	if _, err := countOf(sel, syn, Options{Variance: VarJackknife}); err == nil {
		t.Error("jackknife over stratified sample should fail")
	}
	// Split-sample works (join with a plain relation).
	s := intRelation("S", []string{"a", "id"}, [][]int64{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if err := syn.AddSample(s.Clone("S"), s.Len()); err != nil {
		t.Fatal(err)
	}
	join := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(s),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
	est, err := countOf(join, syn, Options{Variance: VarSplitSample, Groups: 4})
	if err != nil {
		t.Fatal(err)
	}
	if est.Variance < 0 {
		t.Errorf("split-sample variance %v", est.Variance)
	}
	// Stratified SUM: Horvitz–Thompson path.
	sum, err := sumOf(sel, "id", syn, Options{Variance: VarNone})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Value <= 0 {
		t.Errorf("stratified SUM %v", sum.Value)
	}
	// Validation.
	if err := syn.AddDrawnStratified(r, nil, 10, testRand(7)); err == nil {
		t.Error("nil stratum function should fail")
	}
	syn3 := NewSynopsis()
	if err := syn3.AddDrawnStratified(r, func(relation.Row) int { return 0 }, 9999, testRand(8)); err == nil {
		t.Error("oversized stratified sample should fail")
	}
}
