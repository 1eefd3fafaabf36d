package estimator

import (
	"math"
	"testing"

	"relest/internal/algebra"
	"relest/internal/relation"
	"relest/internal/stats"
)

// --- fixtures ---------------------------------------------------------

func intSchema(names ...string) *relation.Schema {
	cols := make([]relation.Column, len(names))
	for i, n := range names {
		cols[i] = relation.Column{Name: n, Kind: relation.KindInt}
	}
	return relation.MustSchema(cols...)
}

func intRelation(name string, cols []string, rows [][]int64) *relation.Relation {
	r := relation.New(name, intSchema(cols...))
	for _, row := range rows {
		t := make(relation.Tuple, len(row))
		for i, v := range row {
			t[i] = relation.Int(v)
		}
		r.MustAppend(t)
	}
	return r
}

// subsets invokes fn with every ascending n-subset of [0, N).
func subsets(N, n int, fn func(rows []int)) {
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			fn(idx)
			return
		}
		for i := start; i < N; i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
}

// synopsisFor builds a synopsis holding the given sample rows of each base.
func synopsisFor(t *testing.T, bases []*relation.Relation, rows [][]int) *Synopsis {
	t.Helper()
	syn := NewSynopsis()
	for i, b := range bases {
		if err := syn.AddSample(b.Subset(b.Name(), rows[i]), b.Len()); err != nil {
			t.Fatal(err)
		}
	}
	return syn
}

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// exhaustiveMean enumerates all sample combinations of the bases at the
// given sample sizes and returns the mean point estimate and the collection
// of per-sample estimates.
func exhaustiveMean(t *testing.T, e *algebra.Expr, bases []*relation.Relation, ns []int) (mean float64, all []float64) {
	t.Helper()
	var rec func(k int, chosen [][]int)
	var sum float64
	count := 0
	rec = func(k int, chosen [][]int) {
		if k == len(bases) {
			syn := synopsisFor(t, bases, chosen)
			est, err := countOf(e, syn, Options{Variance: VarNone})
			if err != nil {
				t.Fatalf("estimate: %v", err)
			}
			sum += est.Value
			all = append(all, est.Value)
			count++
			return
		}
		subsets(bases[k].Len(), ns[k], func(rows []int) {
			cp := append([][]int{}, chosen...)
			rowsCopy := append([]int{}, rows...)
			rec(k+1, append(cp, rowsCopy))
		})
	}
	rec(0, nil)
	return sum / float64(count), all
}

// --- exhaustive unbiasedness -----------------------------------------

// TestUnbiasedExhaustive is the central correctness test of the paper's
// estimator: over every possible SRSWOR sample combination of tiny base
// relations, the mean of the estimates must equal COUNT(E) exactly, for
// every supported operator shape including repeated relations.
func TestUnbiasedExhaustive(t *testing.T) {
	r := intRelation("R", []string{"a", "b"}, [][]int64{{1, 10}, {2, 20}, {2, 30}, {3, 30}, {4, 40}})
	s := intRelation("S", []string{"a", "b"}, [][]int64{{2, 20}, {3, 99}, {4, 40}, {5, 50}})
	cat := algebra.MapCatalog{"R": r, "S": s}
	br, bs := algebra.BaseOf(r), algebra.BaseOf(s)

	cases := []struct {
		name  string
		e     *algebra.Expr
		bases []*relation.Relation
		ns    []int
	}{
		{"selection", algebra.Must(algebra.Select(br, algebra.Cmp{Col: "a", Op: algebra.GE, Val: relation.Int(2)})), []*relation.Relation{r}, []int{2}},
		{"selection-n3", algebra.Must(algebra.Select(br, algebra.Cmp{Col: "b", Op: algebra.LT, Val: relation.Int(35)})), []*relation.Relation{r}, []int{3}},
		{"join", algebra.Must(algebra.Join(br, bs, []algebra.On{{Left: "a", Right: "a"}}, nil, "S")), []*relation.Relation{r, s}, []int{3, 2}},
		{"theta-join", algebra.Must(algebra.Join(br, bs, []algebra.On{{Left: "a", Right: "a"}}, algebra.ColCmp{A: "b", Op: algebra.EQ, B: "S.b"}, "S")), []*relation.Relation{r, s}, []int{2, 2}},
		{"product", algebra.Must(algebra.Product(br, bs, "S")), []*relation.Relation{r, s}, []int{2, 2}},
		{"union", algebra.Must(algebra.Union(br, bs)), []*relation.Relation{r, s}, []int{3, 2}},
		{"diff", algebra.Must(algebra.Diff(br, bs)), []*relation.Relation{r, s}, []int{3, 2}},
		{"intersect", algebra.Must(algebra.Intersect(br, bs)), []*relation.Relation{r, s}, []int{2, 2}},
		{"self-join", algebra.Must(algebra.Join(br, br, []algebra.On{{Left: "a", Right: "a"}}, nil, "R2")), []*relation.Relation{r}, []int{3}},
		{"self-intersect", algebra.Must(algebra.Intersect(br, br)), []*relation.Relation{r}, []int{2}},
		{"composite", algebra.Must(algebra.Diff(
			algebra.Must(algebra.Select(br, algebra.Cmp{Col: "a", Op: algebra.GE, Val: relation.Int(2)})),
			bs)), []*relation.Relation{r, s}, []int{3, 2}},
	}
	for _, c := range cases {
		want, err := algebra.Count(c.e, cat)
		if err != nil {
			t.Fatalf("%s: exact: %v", c.name, err)
		}
		mean, _ := exhaustiveMean(t, c.e, c.bases, c.ns)
		if !almostEqual(mean, float64(want), 1e-9) {
			t.Errorf("%s: E[estimate] = %v, exact = %d (bias %+.3g)", c.name, mean, want, mean-float64(want))
		}
	}
}

// TestSelfJoinNaiveScalingIsBiased documents the failure the pattern
// weights fix: scaling a self-join count by (N/n)² instead of by the
// falling-factorial pattern weights is biased. This guards against
// "simplifying" estimateTerm to constant scaling.
func TestSelfJoinNaiveScalingIsBiased(t *testing.T) {
	r := intRelation("R", []string{"a"}, [][]int64{{1}, {1}, {2}, {2}, {3}})
	cat := algebra.MapCatalog{"R": r}
	br := algebra.BaseOf(r)
	e := algebra.Must(algebra.Join(br, br, []algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))
	want, err := algebra.Count(e, cat)
	if err != nil {
		t.Fatal(err)
	}
	poly, err := algebra.Normalize(e)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	var naive, weighted float64
	trials := 0
	subsets(r.Len(), n, func(rows []int) {
		syn := synopsisFor(t, []*relation.Relation{r}, [][]int{rows})
		est, err := countOf(e, syn, Options{Variance: VarNone})
		if err != nil {
			t.Fatal(err)
		}
		weighted += est.Value
		// Naive: count sample self-join matches, scale by (N/n)².
		inst, err := algebra.BindInstances(&poly.Terms[0], syn)
		if err != nil {
			t.Fatal(err)
		}
		c, err := poly.Terms[0].CountAssignments(inst)
		if err != nil {
			t.Fatal(err)
		}
		scale := float64(r.Len()) / float64(n)
		naive += scale * scale * c
		trials++
	})
	weighted /= float64(trials)
	naive /= float64(trials)
	if !almostEqual(weighted, float64(want), 1e-9) {
		t.Errorf("pattern-weighted self-join biased: %v vs %d", weighted, want)
	}
	if almostEqual(naive, float64(want), 1e-6) {
		t.Errorf("naive scaling unexpectedly unbiased (%v vs %d); test fixture too weak", naive, want)
	}
}

// --- variance estimators ----------------------------------------------

// TestSingleRelationVarianceUnbiasedExhaustive verifies both that the
// closed-form selection variance is unbiased (its mean over all samples
// equals the true sampling variance) and that the point estimator's
// empirical variance matches the Cochran formula.
func TestSingleRelationVarianceUnbiasedExhaustive(t *testing.T) {
	r := intRelation("R", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}, {5}, {6}})
	e := algebra.Must(algebra.Select(algebra.BaseOf(r), algebra.Cmp{Col: "a", Op: algebra.LE, Val: relation.Int(2)}))
	const n = 3
	var ests, vars stats.Welford
	subsets(r.Len(), n, func(rows []int) {
		syn := synopsisFor(t, []*relation.Relation{r}, [][]int{rows})
		est, err := countOf(e, syn, Options{Variance: VarAnalytic})
		if err != nil {
			t.Fatal(err)
		}
		if est.VarianceMethod != VarAnalytic {
			t.Fatalf("method = %v", est.VarianceMethod)
		}
		ests.Add(est.Value)
		vars.Add(est.Variance)
	})
	trueVar := ests.PopVariance()
	if !almostEqual(vars.Mean(), trueVar, 1e-9) {
		t.Errorf("E[Var̂] = %v, true variance = %v", vars.Mean(), trueVar)
	}
}

// TestJoinVarianceUnbiasedExhaustive does the same for the two-relation
// closed form: E[Var̂] over all sample pairs must equal the estimator's
// true variance exactly.
func TestJoinVarianceUnbiasedExhaustive(t *testing.T) {
	r := intRelation("R", []string{"a"}, [][]int64{{1}, {1}, {2}, {3}})
	s := intRelation("S", []string{"a"}, [][]int64{{1}, {2}, {2}, {9}})
	e := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(s), []algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
	var ests, vars stats.Welford
	subsets(r.Len(), 2, func(rrows []int) {
		rr := append([]int{}, rrows...)
		subsets(s.Len(), 3, func(srows []int) {
			syn := synopsisFor(t, []*relation.Relation{r, s}, [][]int{rr, srows})
			est, err := countOf(e, syn, Options{Variance: VarAnalytic})
			if err != nil {
				t.Fatal(err)
			}
			ests.Add(est.Value)
			vars.Add(est.Variance)
		})
	})
	trueVar := ests.PopVariance()
	if !almostEqual(vars.Mean(), trueVar, 1e-9) {
		t.Errorf("E[Var̂] = %v, true variance = %v", vars.Mean(), trueVar)
	}
}

// --- option handling and error paths -----------------------------------

func biggishFixtures(t *testing.T) (*relation.Relation, *relation.Relation) {
	t.Helper()
	rows := make([][]int64, 0, 400)
	for i := 0; i < 400; i++ {
		rows = append(rows, []int64{int64(i % 40), int64(i)})
	}
	r := intRelation("R", []string{"a", "b"}, rows)
	rows2 := make([][]int64, 0, 300)
	for i := 0; i < 300; i++ {
		rows2 = append(rows2, []int64{int64(i % 40), int64(i + 1000)})
	}
	s := intRelation("S", []string{"a", "b"}, rows2)
	return r, s
}

func TestCountWithCI(t *testing.T) {
	r, s := biggishFixtures(t)
	syn := NewSynopsis()
	rng := testRand(1)
	if err := syn.AddDrawn(r, 80, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(s, 60, rng); err != nil {
		t.Fatal(err)
	}
	e := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(s), []algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
	est, err := countOf(e, syn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.VarianceMethod != VarAnalytic {
		t.Errorf("auto should pick analytic for a single join term, got %v", est.VarianceMethod)
	}
	if !(est.Lo <= est.Value && est.Value <= est.Hi) {
		t.Errorf("CI [%v, %v] does not bracket estimate %v", est.Lo, est.Hi, est.Value)
	}
	if est.Confidence != 0.95 {
		t.Errorf("default confidence %v", est.Confidence)
	}
	// Chebyshev must be wider than normal at the same level.
	cheb, err := countOf(e, syn, Options{CI: CIChebyshev})
	if err != nil {
		t.Fatal(err)
	}
	if cheb.Hi-cheb.Lo <= est.Hi-est.Lo {
		t.Errorf("Chebyshev CI [%v,%v] not wider than normal [%v,%v]", cheb.Lo, cheb.Hi, est.Lo, est.Hi)
	}
	// Exact value should be inside a generous interval.
	cat := algebra.MapCatalog{"R": r, "S": s}
	want, _ := algebra.Count(e, cat)
	if est.StdErr > 0 {
		zdist := math.Abs(est.Value-float64(want)) / est.StdErr
		if zdist > 6 {
			t.Errorf("estimate %v is %.1fσ from exact %d", est.Value, zdist, want)
		}
	}
}

func TestVarianceMethodSelection(t *testing.T) {
	r, s := biggishFixtures(t)
	syn := NewSynopsis()
	rng := testRand(7)
	if err := syn.AddDrawn(r, 64, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(s, 64, rng); err != nil {
		t.Fatal(err)
	}
	br, bs := algebra.BaseOf(r), algebra.BaseOf(s)
	sel := algebra.Must(algebra.Select(br, algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(10)}))
	union := algebra.Must(algebra.Union(br, bs))

	est, err := countOf(sel, syn, Options{Variance: VarAuto})
	if err != nil {
		t.Fatal(err)
	}
	if est.VarianceMethod != VarAnalytic {
		t.Errorf("selection should use analytic, got %v", est.VarianceMethod)
	}
	est, err = countOf(union, syn, Options{Variance: VarAuto})
	if err != nil {
		t.Fatal(err)
	}
	if est.VarianceMethod != VarSplitSample {
		t.Errorf("union should fall back to split-sample, got %v", est.VarianceMethod)
	}
	if est.Variance < 0 {
		t.Errorf("split-sample variance negative: %v", est.Variance)
	}
	// Explicit analytic on a union must fail.
	if _, err := countOf(union, syn, Options{Variance: VarAnalytic}); err == nil {
		t.Error("VarAnalytic on a union should fail")
	}
	// Jackknife runs (slowly) and gives a positive variance.
	est, err = countOf(sel, syn, Options{Variance: VarJackknife})
	if err != nil {
		t.Fatal(err)
	}
	if est.VarianceMethod != VarJackknife || est.Variance < 0 {
		t.Errorf("jackknife: method %v variance %v", est.VarianceMethod, est.Variance)
	}
	// VarNone leaves NaN.
	est, err = countOf(sel, syn, Options{Variance: VarNone})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(est.Variance) || est.Lo != 0 || est.Hi != 0 {
		t.Errorf("VarNone: %+v", est)
	}
}

func TestEstimateErrors(t *testing.T) {
	r, _ := biggishFixtures(t)
	br := algebra.BaseOf(r)
	syn := NewSynopsis()
	// Missing relation.
	sel := algebra.Must(algebra.Select(br, algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(10)}))
	if _, err := countOf(sel, syn, Options{}); err == nil {
		t.Error("missing sample should fail")
	}
	// π rejected.
	if err := syn.AddDrawn(r, 10, testRand(3)); err != nil {
		t.Fatal(err)
	}
	pr := algebra.Must(algebra.Project(br, "a"))
	if _, err := countOf(pr, syn, Options{}); err == nil {
		t.Error("projection should be rejected by Count")
	}
	// Sample smaller than occurrence multiplicity.
	small := NewSynopsis()
	if err := small.AddDrawn(r, 1, testRand(4)); err != nil {
		t.Fatal(err)
	}
	selfJoin := algebra.Must(algebra.Join(br, br, []algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))
	if _, err := countOf(selfJoin, small, Options{Variance: VarNone}); err == nil {
		t.Error("n=1 sample for a self-join should fail the unbiasedness precondition")
	}
	// Empty sample of a non-empty relation.
	empty := NewSynopsis()
	if err := empty.AddSample(relation.New("R", r.Schema()), r.Len()); err != nil {
		t.Fatal(err)
	}
	if _, err := countOf(sel, empty, Options{Variance: VarNone}); err == nil {
		t.Error("empty sample of non-empty relation should fail")
	}
}

func TestTermsReported(t *testing.T) {
	r, s := biggishFixtures(t)
	syn := NewSynopsis()
	rng := testRand(9)
	_ = syn.AddDrawn(r, 32, rng)
	_ = syn.AddDrawn(s, 32, rng)
	u := algebra.Must(algebra.Union(algebra.BaseOf(r), algebra.BaseOf(s)))
	est, err := countOf(u, syn, Options{Variance: VarNone})
	if err != nil {
		t.Fatal(err)
	}
	if est.Terms != 3 {
		t.Errorf("union should report 3 terms, got %d", est.Terms)
	}
}

// TestVarianceLadderSharedByCountAndSum pins the one ladder: on a sample
// too small for the requested 8 split-sample groups, an explicit
// VarSplitSample is the documented error for COUNT and SUM alike, while
// VarAuto (and SUM's degraded VarAnalytic) resolves to split-sample with
// the group count shrunk to fit.
func TestVarianceLadderSharedByCountAndSum(t *testing.T) {
	r, s := biggishFixtures(t)
	syn := NewSynopsis()
	rng := testRand(3)
	if err := syn.AddDrawn(r, 5, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(s, 5, rng); err != nil {
		t.Fatal(err)
	}
	union := algebra.Must(algebra.Union(algebra.BaseOf(r), algebra.BaseOf(s)))
	col := union.Schema().Column(0).Name

	if _, err := countOf(union, syn, Options{Variance: VarSplitSample}); err == nil {
		t.Error("COUNT: explicit split-sample with 8 groups on 5 rows should fail")
	}
	if _, err := sumOf(union, col, syn, Options{Variance: VarSplitSample}); err == nil {
		t.Error("SUM: explicit split-sample with 8 groups on 5 rows should fail")
	}
	for _, v := range []VarianceMethod{VarAuto, VarAnalytic} {
		est, err := sumOf(union, col, syn, Options{Variance: v})
		if err != nil {
			t.Fatal(err)
		}
		if est.VarianceMethod != VarSplitSample || math.IsNaN(est.Variance) {
			t.Errorf("SUM %v: method %v variance %v, want shrunk split-sample", v, est.VarianceMethod, est.Variance)
		}
	}
	est, err := countOf(union, syn, Options{Variance: VarAuto})
	if err != nil {
		t.Fatal(err)
	}
	if est.VarianceMethod != VarSplitSample || math.IsNaN(est.Variance) {
		t.Errorf("COUNT auto: method %v variance %v, want shrunk split-sample", est.VarianceMethod, est.Variance)
	}
}
