package estimator

import (
	"fmt"
	"math"
	"testing"

	"relest/internal/algebra"
	"relest/internal/obs"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/stats"
	"relest/internal/workload"
)

// exactSum computes SUM(col) over the exact evaluation of e.
func exactSum(t *testing.T, e *algebra.Expr, cat algebra.Catalog, col string) float64 {
	t.Helper()
	res, err := algebra.Eval(e, cat)
	if err != nil {
		t.Fatal(err)
	}
	pos := res.Schema().MustColumnIndex(col)
	total := 0.0
	res.Each(func(i int, tp relation.Tuple) bool {
		if !tp[pos].IsNull() {
			total += tp[pos].Float64()
		}
		return true
	})
	return total
}

// TestSumUnbiasedExhaustive: over every SRSWOR sample combination, the mean
// SUM estimate equals the exact sum, for selection, join, difference and
// self-join shapes.
func TestSumUnbiasedExhaustive(t *testing.T) {
	r := intRelation("R", []string{"a", "v"}, [][]int64{{1, 10}, {2, 20}, {2, 5}, {3, 30}, {4, 40}})
	s := intRelation("S", []string{"a", "v"}, [][]int64{{2, 7}, {3, 9}, {4, 11}, {5, 13}})
	cat := algebra.MapCatalog{"R": r, "S": s}
	br, bs := algebra.BaseOf(r), algebra.BaseOf(s)

	cases := []struct {
		name  string
		e     *algebra.Expr
		col   string
		bases []*relation.Relation
		ns    []int
	}{
		{"selection", algebra.Must(algebra.Select(br, algebra.Cmp{Col: "a", Op: algebra.GE, Val: relation.Int(2)})), "v", []*relation.Relation{r}, []int{2}},
		{"join-left-col", algebra.Must(algebra.Join(br, bs, []algebra.On{{Left: "a", Right: "a"}}, nil, "S")), "v", []*relation.Relation{r, s}, []int{3, 2}},
		{"join-right-col", algebra.Must(algebra.Join(br, bs, []algebra.On{{Left: "a", Right: "a"}}, nil, "S")), "S.v", []*relation.Relation{r, s}, []int{3, 2}},
		{"diff", algebra.Must(algebra.Diff(br, intExprCompat(t, s))), "v", []*relation.Relation{r, s}, []int{3, 2}},
		{"self-join", algebra.Must(algebra.Join(br, br, []algebra.On{{Left: "a", Right: "a"}}, nil, "R2")), "v", []*relation.Relation{r}, []int{3}},
	}
	for _, c := range cases {
		want := exactSum(t, c.e, cat, c.col)
		var sum float64
		count := 0
		var rec func(k int, chosen [][]int)
		rec = func(k int, chosen [][]int) {
			if k == len(c.bases) {
				syn := synopsisFor(t, c.bases, chosen)
				est, err := sumOf(c.e, c.col, syn, Options{Variance: VarNone})
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				sum += est.Value
				count++
				return
			}
			subsets(c.bases[k].Len(), c.ns[k], func(rows []int) {
				cp := append([][]int{}, chosen...)
				rowsCopy := append([]int{}, rows...)
				rec(k+1, append(cp, rowsCopy))
			})
		}
		rec(0, nil)
		mean := sum / float64(count)
		if !almostEqual(mean, want, 1e-9) {
			t.Errorf("%s: E[SUM estimate] = %v, exact = %v", c.name, mean, want)
		}
	}
}

// intExprCompat returns BaseOf(s) — both fixtures share a layout, so set
// operations apply; the helper documents the intent at call sites.
func intExprCompat(t *testing.T, s *relation.Relation) *algebra.Expr {
	t.Helper()
	return algebra.BaseOf(s)
}

func TestSumValidation(t *testing.T) {
	r := intRelation("R", []string{"a", "v"}, [][]int64{{1, 10}, {2, 20}})
	br := algebra.BaseOf(r)
	syn := NewSynopsis()
	if err := syn.AddDrawn(r, 2, testRand(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := sumOf(br, "zz", syn, Options{}); err == nil {
		t.Error("unknown column should fail")
	}
	// Non-numeric column.
	sr := relation.New("T", relation.MustSchema(relation.Column{Name: "s", Kind: relation.KindString}))
	sr.MustAppend(relation.Tuple{relation.Str("x")})
	syn2 := NewSynopsis()
	if err := syn2.AddDrawn(sr, 1, testRand(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := sumOf(algebra.BaseOf(sr), "s", syn2, Options{}); err == nil {
		t.Error("string column SUM should fail")
	}
	// π rejected.
	pr := algebra.Must(algebra.Project(br, "v"))
	if _, err := sumOf(pr, "v", syn, Options{}); err == nil {
		t.Error("SUM over π should fail")
	}
}

func TestSumNullsContributeZero(t *testing.T) {
	r := relation.New("R", relation.MustSchema(
		relation.Column{Name: "v", Kind: relation.KindInt}))
	r.MustAppend(relation.Tuple{relation.Int(5)})
	r.MustAppend(relation.Tuple{relation.Null()})
	r.MustAppend(relation.Tuple{relation.Int(7)})
	syn := NewSynopsis()
	if err := syn.AddSample(r.Clone("R"), r.Len()); err != nil { // census
		t.Fatal(err)
	}
	est, err := sumOf(algebra.BaseOf(r), "v", syn, Options{Variance: VarNone})
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 12 {
		t.Errorf("census SUM with null = %v, want 12", est.Value)
	}
}

func TestSumVarianceAndCI(t *testing.T) {
	r, s := biggishFixtures(t)
	syn := NewSynopsis()
	rng := testRand(31)
	if err := syn.AddDrawn(r, 64, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(s, 64, rng); err != nil {
		t.Fatal(err)
	}
	e := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(s),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
	est, err := sumOf(e, "b", syn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.VarianceMethod != VarAnalytic {
		t.Errorf("SUM variance method %v", est.VarianceMethod)
	}
	if !(est.Lo <= est.Value && est.Value <= est.Hi) {
		t.Errorf("CI [%v,%v] around %v", est.Lo, est.Hi, est.Value)
	}
	// Exact within a loose band.
	want := exactSum(t, e, algebra.MapCatalog{"R": r, "S": s}, "b")
	if math.Abs(est.Value-want)/want > 0.6 {
		t.Errorf("SUM estimate %v vs %v", est.Value, want)
	}
}

func TestAvg(t *testing.T) {
	r, _ := biggishFixtures(t)
	syn := NewSynopsis()
	if err := syn.AddDrawn(r, 100, testRand(33)); err != nil {
		t.Fatal(err)
	}
	sel := algebra.Must(algebra.Select(algebra.BaseOf(r),
		algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(20)}))
	res, err := avgOf(sel, "b", syn, Options{Variance: VarNone})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Avg) {
		t.Fatal("AVG is NaN")
	}
	if !almostEqual(res.Avg, res.Sum.Value/res.Count.Value, 1e-12) {
		t.Errorf("AVG %v != SUM/COUNT %v", res.Avg, res.Sum.Value/res.Count.Value)
	}
	// b values run 0..399 for a<20 spread evenly: true mean around 199.5.
	if res.Avg < 100 || res.Avg > 300 {
		t.Errorf("AVG %v implausible", res.Avg)
	}
	// Zero-count case yields NaN.
	empty := algebra.Must(algebra.Select(algebra.BaseOf(r),
		algebra.Cmp{Col: "a", Op: algebra.GT, Val: relation.Int(10_000)}))
	res, err = avgOf(empty, "b", syn, Options{Variance: VarNone})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.Avg) {
		t.Errorf("empty AVG = %v, want NaN", res.Avg)
	}
	// The SUM and COUNT passes share one plan cache: the single term
	// compiles once and the second pass hits it.
	rec := obs.NewCollector()
	if _, err := avgOf(sel, "b", syn, Options{Variance: VarNone, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	if built, hit := rec.Metrics().Counter("relest_plan_built_total").Value(), rec.Metrics().Counter("relest_plan_cache_hit_total").Value(); built != 1 || hit < 1 {
		t.Errorf("AVG compiled %v plans with %v cache hits, want 1 and >= 1", built, hit)
	}
}

// sumVarianceFixture is R(a, v, w) and S(a, u, x): Int keys, one Float and
// one Int weight column each, with a NULL key and a NULL weight on both
// sides (a NULL key joins nothing; a NULL weight contributes zero).
func sumVarianceFixture() (r, s *relation.Relation) {
	i, f, null := relation.Int, relation.Float, relation.Null()
	r = relation.New("R", relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindFloat},
		relation.Column{Name: "w", Kind: relation.KindInt},
	))
	for _, row := range []relation.Tuple{
		{i(1), f(2.5), i(10)},
		{i(2), f(-1.25), i(20)},
		{i(2), f(4), null},
		{null, f(3), i(7)},
		{i(3), null, i(30)},
		{i(1), f(0.5), i(40)},
	} {
		r.MustAppend(row)
	}
	s = relation.New("S", relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "u", Kind: relation.KindFloat},
		relation.Column{Name: "x", Kind: relation.KindInt},
	))
	for _, row := range []relation.Tuple{
		{i(2), f(7.5), i(1)},
		{i(1), null, i(2)},
		{i(3), f(1.5), i(3)},
		{null, f(2), i(4)},
		{i(2), f(-3), null},
	} {
		s.MustAppend(row)
	}
	return r, s
}

// exhaustiveSumVariance runs estimate over every sample the samples
// callback yields and checks that the closed form answered every one,
// that the estimator is unbiased for want, and that the mean variance
// estimate equals the estimator's true variance over the samples, to
// 1e-9.
func exhaustiveSumVariance(t *testing.T, label string, want float64, samples func(yield func(*Synopsis)), estimate func(*Synopsis) (Estimate, error)) {
	t.Helper()
	var ests, vars stats.Welford
	samples(func(syn *Synopsis) {
		est, err := estimate(syn)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if est.VarianceMethod != VarAnalytic {
			t.Fatalf("%s: variance method %v, want the closed form", label, est.VarianceMethod)
		}
		ests.Add(est.Value)
		vars.Add(est.Variance)
	})
	if !almostEqual(ests.Mean(), want, 1e-9) {
		t.Errorf("%s: E[SUM estimate] = %v, exact %v", label, ests.Mean(), want)
	}
	if !almostEqual(vars.Mean(), ests.PopVariance(), 1e-9) {
		t.Errorf("%s: E[Var̂] = %v, true variance %v (%d samples)", label, vars.Mean(), ests.PopVariance(), ests.N())
	}
}

// TestSumJoinVarianceUnbiasedExhaustive: the two-relation closed form
// read off the weighted bucket tally is exactly unbiased for SUM over an
// equi-join, over every pair of SRSWOR samples at three sample-size
// pairs — with the summed column (Float or Int) on either occurrence, so
// on the plan's scanned side and on its indexed side, with σ on both
// sides, and with NULL keys and NULL weights.
func TestSumJoinVarianceUnbiasedExhaustive(t *testing.T) {
	r, s := sumVarianceFixture()
	cat := algebra.MapCatalog{"R": r, "S": s}
	br, bs := algebra.BaseOf(r), algebra.BaseOf(s)
	on := []algebra.On{{Left: "a", Right: "a"}}
	join := algebra.Must(algebra.Join(br, bs, on, nil, "S"))
	selJoin := algebra.Must(algebra.Join(
		algebra.Must(algebra.Select(br, algebra.Cmp{Col: "v", Op: algebra.LT, Val: relation.Float(3)})),
		algebra.Must(algebra.Select(bs, algebra.Cmp{Col: "x", Op: algebra.GT, Val: relation.Int(1)})),
		on, nil, "S"))
	cases := []struct {
		name string
		e    *algebra.Expr
		col  string
	}{
		{"join/R.v", join, "v"},
		{"join/R.w", join, "w"},
		{"join/S.u", join, "u"},
		{"join/S.x", join, "x"},
		{"select-join/R.v", selJoin, "v"},
		{"select-join/S.u", selJoin, "u"},
	}
	bases := []*relation.Relation{r, s}
	for _, c := range cases {
		want := exactSum(t, c.e, cat, c.col)
		for _, ns := range [][2]int{{2, 2}, {3, 2}, {4, 3}} {
			samples := func(yield func(*Synopsis)) {
				subsets(r.Len(), ns[0], func(rRows []int) {
					rRows = append([]int{}, rRows...)
					subsets(s.Len(), ns[1], func(sRows []int) {
						yield(synopsisFor(t, bases, [][]int{rRows, sRows}))
					})
				})
			}
			exhaustiveSumVariance(t, fmt.Sprintf("%s/n=%v", c.name, ns), want, samples, func(syn *Synopsis) (Estimate, error) {
				return sumOf(c.e, c.col, syn, Options{Variance: VarAnalytic})
			})
		}
	}
}

// TestSumSelectVarianceUnbiasedExhaustive: single-relation SUM takes the
// closed form y_i = coef·value under every design — Cochran's total
// variance over tuples, the ultimate-cluster form over pages, and the
// per-stratum sum — and it is exactly unbiased over every sample.
func TestSumSelectVarianceUnbiasedExhaustive(t *testing.T) {
	r, _ := sumVarianceFixture()
	cat := algebra.MapCatalog{"R": r}
	sel := algebra.Must(algebra.Select(algebra.BaseOf(r), algebra.Cmp{Col: "a", Op: algebra.LE, Val: relation.Int(2)}))
	sum := func(col string) func(*Synopsis) (Estimate, error) {
		return func(syn *Synopsis) (Estimate, error) {
			return sumOf(sel, col, syn, Options{Variance: VarAnalytic})
		}
	}
	for _, col := range []string{"v", "w"} {
		want := exactSum(t, sel, cat, col)
		for _, n := range []int{2, 3, 4} {
			exhaustiveSumVariance(t, fmt.Sprintf("tuple/%s/n=%d", col, n), want, func(yield func(*Synopsis)) {
				subsets(r.Len(), n, func(rows []int) {
					yield(synopsisFor(t, []*relation.Relation{r}, [][]int{rows}))
				})
			}, sum(col))
		}
		for _, pages := range []int{2, 3} {
			exhaustiveSumVariance(t, fmt.Sprintf("page/%s/m=%d", col, pages), want, func(yield func(*Synopsis)) {
				subsets(3, pages, func(ids []int) {
					yield(pageSynopsisFor(t, r, 2, ids))
				})
			}, sum(col))
		}
		strata := [][]int{{0, 2, 4}, {1, 3, 5}}
		exhaustiveSumVariance(t, "stratified/"+col, want, func(yield func(*Synopsis)) {
			subsets(3, 2, func(s0 []int) {
				s0 = append([]int{}, s0...)
				subsets(3, 2, func(s1 []int) {
					yield(stratifiedSynopsisFor(t, r, strata, [][]int{s0, s1}))
				})
			})
		}, sum(col))
	}
}

// BenchmarkSumJoin prices one SUM over an equi-join with its VarAuto
// variance: sum(join(σ(R1), R2), id) over 2 000-row samples of the
// 100k-row JoinPair fixture BenchmarkDeadlineRounds uses — the shape of
// the agg_join requests.
func BenchmarkSumJoin(b *testing.B) {
	rng := sampling.Seeded(7)
	r1, r2 := workload.JoinPair(rng, workload.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: 2_000, N1: 100_000, N2: 100_000,
		Correlation: workload.Independent,
	})
	e := algebra.Must(algebra.Join(
		algebra.Must(algebra.Select(algebra.BaseOf(r1), algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(1_000)})),
		algebra.BaseOf(r2), []algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))
	syn := NewSynopsis()
	for _, r := range []*relation.Relation{r1, r2} {
		if err := syn.AddDrawn(r, 2_000, rng); err != nil {
			b.Fatal(err)
		}
	}
	opts := Options{Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sumOf(e, "id", syn, opts); err != nil {
			b.Fatal(err)
		}
	}
}
