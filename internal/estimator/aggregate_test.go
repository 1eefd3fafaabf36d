package estimator

import (
	"math"
	"testing"

	"relest/internal/algebra"
	"relest/internal/obs"
	"relest/internal/relation"
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
	if est.VarianceMethod != VarSplitSample {
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
