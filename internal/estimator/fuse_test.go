package estimator

import (
	"context"
	"testing"

	"relest/internal/algebra"
	"relest/internal/relation"
	"relest/internal/stats"
)

// fuseShapes are the four set-operation shapes over selections of R1 that
// the heavy benchmark workload joins to R2: EXCEPT, UNION, UNION over
// INTERSECT, and nested UNION. Each returns the set expression over R1
// alone; the query is its join to R2 on a.
func fuseShapes(r1 *algebra.Expr, k int64) map[string]*algebra.Expr {
	sel := func(op algebra.CmpOp, v int64) *algebra.Expr {
		return algebra.Must(algebra.Select(r1, algebra.Cmp{Col: "a", Op: op, Val: relation.Int(v)}))
	}
	a, b, c := sel(algebra.LT, k), sel(algebra.GE, k/2), sel(algebra.GT, k+25)
	return map[string]*algebra.Expr{
		"except":          algebra.Must(algebra.Diff(a, sel(algebra.LT, k/2))),
		"union":           algebra.Must(algebra.Union(a, b)),
		"union-intersect": algebra.Must(algebra.Union(algebra.Must(algebra.Intersect(a, b)), c)),
		"union-union":     algebra.Must(algebra.Union(algebra.Must(algebra.Union(a, b)), c)),
	}
}

var fuseShapeNames = []string{"except", "union", "union-intersect", "union-union"}

// fuseFixture is R1(id, a) with 600 rows and R2(id, a) with 500, a over
// [0, 100); ids are unique, so both are duplicate-free.
func fuseFixture() (r1, r2 *relation.Relation) {
	rng := testRand(57)
	rows := func(n int) [][]int64 {
		out := make([][]int64, n)
		for i := range out {
			out[i] = []int64{int64(i), int64(rng.Intn(100))}
		}
		return out
	}
	return intRelation("R1", []string{"id", "a"}, rows(600)), intRelation("R2", []string{"id", "a"}, rows(500))
}

// withWeight returns R1 extended by a column w holding each row's weight
// under the fused polynomial of a set expression over R1: 1 for a row of
// the expression's result, 0 otherwise (for a duplicate-free R1 the
// inclusion–exclusion weight is the row's membership).
func withWeight(t *testing.T, r1 *relation.Relation, inner *algebra.Expr) *relation.Relation {
	t.Helper()
	res, err := algebra.Eval(inner, algebra.MapCatalog{"R1": r1})
	if err != nil {
		t.Fatal(err)
	}
	in := map[int64]bool{}
	res.EachRow(func(_ int, row relation.Row) bool {
		in[row.Value(0).Int64()] = true
		return true
	})
	rows := make([][]int64, r1.Len())
	for i := range rows {
		id := r1.Value(i, 0).Int64()
		rows[i] = []int64{id, r1.Value(i, 1).Int64(), 0}
		if in[id] {
			rows[i][2] = 1
		}
	}
	return intRelation("R1", []string{"id", "a", "w"}, rows)
}

func sameEstimate(a, b Estimate) bool {
	return sameBits(a.Value, b.Value) && sameBits(a.Variance, b.Variance) &&
		sameBits(a.Lo, b.Lo) && sameBits(a.Hi, b.Hi) &&
		a.VarianceMethod == b.VarianceMethod && a.Terms == b.Terms
}

// TestFusedCountIsWeightedSum: each of the four benchmark shapes, over a
// duplicate-free R1, fuses into one weighted join term, and its COUNT has
// the bits of the SUM of a weight column over the same sample with R1
// extended by that column — value, variance, interval, method and term
// count — under every variance method, at one worker and at four. The
// automatic method resolves to the closed form.
func TestFusedCountIsWeightedSum(t *testing.T) {
	r1, r2 := fuseFixture()
	shapes := fuseShapes(algebra.BaseOf(r1), 60)
	on := []algebra.On{{Left: "a", Right: "a"}}
	draw := func(r *relation.Relation) *Synopsis {
		rng := testRand(8)
		syn := NewSynopsis()
		if err := syn.AddDrawn(r, 120, rng); err != nil {
			t.Fatal(err)
		}
		if err := syn.AddDrawn(r2, 90, rng); err != nil {
			t.Fatal(err)
		}
		return syn
	}
	for _, name := range fuseShapeNames {
		inner := shapes[name]
		e := algebra.Must(algebra.Join(inner, algebra.BaseOf(r2), on, nil, "R2"))
		syn := draw(r1)
		poly, err := syn.countPoly(e)
		if err != nil {
			t.Fatal(err)
		}
		if poly.NumTerms() != 1 {
			t.Fatalf("%s: fused polynomial has %d terms, want 1", name, poly.NumTerms())
		}
		r1w := withWeight(t, r1, inner)
		ref := algebra.Must(algebra.Join(algebra.BaseOf(r1w), algebra.BaseOf(r2), on, nil, "R2"))
		refSyn := draw(r1w)
		for _, m := range []VarianceMethod{VarAuto, VarAnalytic, VarJackknife, VarSplitSample} {
			for _, workers := range []int{1, 4} {
				opts := Options{Variance: m, Seed: 5, Workers: workers}
				got, err := countOf(e, syn, opts)
				if err != nil {
					t.Fatalf("%s %v: %v", name, m, err)
				}
				want, err := sumOf(ref, "w", refSyn, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !sameEstimate(got, want) {
					t.Errorf("%s %v workers %d: fused COUNT %+v, weighted SUM %+v", name, m, workers, got, want)
				}
				if m == VarAuto && got.VarianceMethod != VarAnalytic {
					t.Errorf("%s: auto variance resolved to %v, want the closed form", name, got.VarianceMethod)
				}
			}
		}
	}
}

// drawnSynopsisOf registers, for each base, the tuple sample holding the
// given rows as a drawn sample would: with its base retained, so fusion
// may ask whether the population is duplicate-free.
func drawnSynopsisOf(bases []*relation.Relation, rows [][]int) *Synopsis {
	syn := NewSynopsis()
	for i, b := range bases {
		rs := &relSynopsis{name: b.Name(), N: b.Len(), M: b.Len(), base: b, distinct: &popDistinct{}}
		rs.addUnits(append([]int(nil), rows[i]...))
		syn.rels[b.Name()] = rs
	}
	return syn
}

// TestFusedCountUnbiasedExhaustive enumerates every pair of samples of a
// tiny duplicate-free R1 and R2: the fused ∪, ∩ and − COUNTs of two
// selections of R1 joined to R2 are single terms with the closed-form
// variance, E[Ĵ] equals the exact count and E[V̂] the variance of Ĵ.
func TestFusedCountUnbiasedExhaustive(t *testing.T) {
	r1 := intRelation("R1", []string{"id", "a"}, [][]int64{{0, 1}, {1, 2}, {2, 2}, {3, 3}, {4, 1}, {5, 4}, {6, 2}})
	r2 := intRelation("R2", []string{"id", "a"}, [][]int64{{0, 1}, {1, 2}, {2, 2}, {3, 4}, {4, 1}, {5, 3}})
	b1 := algebra.BaseOf(r1)
	lo := algebra.Must(algebra.Select(b1, algebra.Cmp{Col: "a", Op: algebra.LE, Val: relation.Int(2)}))
	hi := algebra.Must(algebra.Select(b1, algebra.Cmp{Col: "id", Op: algebra.GE, Val: relation.Int(2)}))
	on := []algebra.On{{Left: "a", Right: "a"}}
	cat := algebra.MapCatalog{"R1": r1, "R2": r2}
	for name, inner := range map[string]*algebra.Expr{
		"union":     algebra.Must(algebra.Union(lo, hi)),
		"intersect": algebra.Must(algebra.Intersect(lo, hi)),
		"except":    algebra.Must(algebra.Diff(lo, hi)),
	} {
		e := algebra.Must(algebra.Join(inner, algebra.BaseOf(r2), on, nil, "R2"))
		want, err := algebra.Count(e, cat)
		if err != nil {
			t.Fatal(err)
		}
		var ests, vars stats.Welford
		subsets(r1.Len(), 3, func(rows1 []int) {
			subsets(r2.Len(), 3, func(rows2 []int) {
				syn := drawnSynopsisOf([]*relation.Relation{r1, r2}, [][]int{rows1, rows2})
				est, err := countOf(e, syn, Options{Variance: VarAnalytic})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if est.Terms != 1 {
					t.Fatalf("%s: %d terms, want the fused 1", name, est.Terms)
				}
				ests.Add(est.Value)
				vars.Add(est.Variance)
			})
		})
		if !almostEqual(ests.Mean(), float64(want), 1e-9) {
			t.Errorf("%s: E[Ĵ] = %v, exact %d", name, ests.Mean(), want)
		}
		if !almostEqual(vars.Mean(), ests.PopVariance(), 1e-9) {
			t.Errorf("%s: E[V̂] = %v, Var(Ĵ) = %v", name, vars.Mean(), ests.PopVariance())
		}
	}
}

// TestFusionDeclines: a base holding one duplicated row, an Incremental
// snapshot, a synopsis of samples added without a base, and a SUM over a
// set operation keep the polynomial Normalize makes: their answers have
// the bits of the unfused estimate.
func TestFusionDeclines(t *testing.T) {
	r1, r2 := fuseFixture()
	dupRows := make([][]int64, 0, r1.Len()+1)
	for i := range r1.Len() {
		dupRows = append(dupRows, []int64{r1.Value(i, 0).Int64(), r1.Value(i, 1).Int64()})
	}
	dupRows = append(dupRows, dupRows[17])
	dup := intRelation("R1", []string{"id", "a"}, dupRows)
	on := []algebra.On{{Left: "a", Right: "a"}}
	query := func(r *relation.Relation) *algebra.Expr {
		return algebra.Must(algebra.Join(fuseShapes(algebra.BaseOf(r), 60)["union"], algebra.BaseOf(r2), on, nil, "R2"))
	}

	syns := map[string]*Synopsis{}
	{
		rng := testRand(3)
		syn := NewSynopsis()
		if err := syn.AddDrawn(dup, 120, rng); err != nil {
			t.Fatal(err)
		}
		if err := syn.AddDrawn(r2, 90, rng); err != nil {
			t.Fatal(err)
		}
		if syn.duplicateFree("R1") || !syn.duplicateFree("R2") {
			t.Fatal("duplicateFree misreads the bases")
		}
		syns["duplicated row"] = syn
	}
	{
		inc := NewIncrementalWithOptions(IncrementalOptions{Capacity: 100, Seed: 4})
		for _, r := range []*relation.Relation{r1, r2} {
			if err := inc.Track(r.Name(), r.Schema()); err != nil {
				t.Fatal(err)
			}
			for i := range r.Len() {
				if err := inc.Insert(r.Name(), r.Materialize(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		syn, err := inc.SampleSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		syns["incremental snapshot"] = syn
	}
	rows := func(n, step int) []int {
		var out []int
		for i := 0; i < n; i += step {
			out = append(out, i)
		}
		return out
	}
	syns["added samples"] = synopsisFor(t, []*relation.Relation{r1, r2}, [][]int{rows(r1.Len(), 5), rows(r2.Len(), 4)})

	ctx := context.Background()
	for name, syn := range syns {
		base := r1
		if name == "duplicated row" {
			base = dup
		}
		e := query(base)
		poly, err := algebra.Normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []VarianceMethod{VarAuto, VarJackknife} {
			opts := Options{Variance: m, Seed: 6}
			got, err := countOf(e, syn, opts)
			if err != nil {
				t.Fatalf("%s %v: %v", name, m, err)
			}
			want, err := estimatePoly(ctx, poly, syn, opts, countContrib)
			if err != nil {
				t.Fatal(err)
			}
			if !sameEstimate(got, want) || got.Terms != 3 {
				t.Errorf("%s %v: %+v, unfused %+v", name, m, got, want)
			}
		}
	}

	// A SUM over a set operation is never fused.
	syn := NewSynopsis()
	rng := testRand(3)
	for _, r := range []*relation.Relation{r1, r2} {
		if err := syn.AddDrawn(r, 100, rng); err != nil {
			t.Fatal(err)
		}
	}
	e := query(r1)
	poly, err := algebra.Normalize(e)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 6}
	got, err := sumOf(e, "R2.id", syn, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := estimatePoly(ctx, poly, syn, opts, sumContrib(e.Schema().ColumnIndex("R2.id")))
	if err != nil {
		t.Fatal(err)
	}
	if !sameEstimate(got, want) || got.Terms != 3 {
		t.Errorf("SUM over a set operation: %+v, unfused %+v", got, want)
	}
}

// TestFusedCountCancels: an expression fusion reduces to nothing counts 0
// exactly, with a zero closed-form variance.
func TestFusedCountCancels(t *testing.T) {
	r1, r2 := fuseFixture()
	syn, err := Draw([]*relation.Relation{r1, r2}, 0.2, 10, testRand(2))
	if err != nil {
		t.Fatal(err)
	}
	a := fuseShapes(algebra.BaseOf(r1), 60)["union"]
	for _, v := range []VarianceMethod{VarAuto, VarAnalytic} {
		est, err := countOf(algebra.Must(algebra.Diff(a, a)), syn, Options{Variance: v})
		if err != nil {
			t.Fatal(err)
		}
		if est.Value != 0 || est.Variance != 0 || est.Terms != 0 || est.VarianceMethod != VarAnalytic {
			t.Errorf("%v: A − A estimated as %+v", v, est)
		}
	}
}
