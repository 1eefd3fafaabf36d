package planner

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/relation"
)

func intSchema(names ...string) *relation.Schema {
	cols := make([]relation.Column, len(names))
	for i, n := range names {
		cols[i] = relation.Column{Name: n, Kind: relation.KindInt}
	}
	return relation.MustSchema(cols...)
}

// chainFixture builds a 3-relation chain A ⋈ B ⋈ C with very different
// intermediate sizes so the join order matters: A⋈B is huge, B⋈C is tiny.
func chainFixture() (algebra.MapCatalog, Query) {
	mk := func(name string, rows [][]int64, cols ...string) *relation.Relation {
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
	// A(x): 40 rows, all x = 1..4 repeated → A⋈B on x is big.
	var arows [][]int64
	for i := 0; i < 40; i++ {
		arows = append(arows, []int64{int64(i%4 + 1), int64(i)})
	}
	a := mk("A", arows, "x", "aid")
	// B(x, y): 20 rows, x in 1..4 repeated, y unique → B⋈C tiny.
	var brows [][]int64
	for i := 0; i < 20; i++ {
		brows = append(brows, []int64{int64(i%4 + 1), int64(i)})
	}
	b := mk("B", brows, "x", "y")
	// C(y): 10 rows, y = 0..9 → joins only first 10 B rows.
	var crows [][]int64
	for i := 0; i < 10; i++ {
		crows = append(crows, []int64{int64(i), int64(100 + i)})
	}
	c := mk("C", crows, "y", "cid")
	cat := algebra.MapCatalog{"A": a, "B": b, "C": c}
	q := Query{
		Relations: []string{"A", "B", "C"},
		Schemas:   map[string]*relation.Schema{"A": a.Schema(), "B": b.Schema(), "C": c.Schema()},
		Edges: []Edge{
			{A: "A", B: "B", ACol: "x", BCol: "x"},
			{A: "B", B: "C", BCol: "y", ACol: "y"},
		},
	}
	return cat, q
}

func TestOptimizeExactOracle(t *testing.T) {
	cat, q := chainFixture()
	plan, err := Optimize(q, Exact{Cat: cat})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Order) != 3 {
		t.Fatalf("order %v", plan.Order)
	}
	// The cheap order starts with B⋈C (10 rows) rather than A⋈B (200).
	first2 := append([]string(nil), plan.Order[:2]...)
	sort.Strings(first2)
	if strings.Join(first2, ",") != "B,C" {
		t.Errorf("exact oracle picked order %v; expected to start with B,C", plan.Order)
	}
	// The plan expression is executable and matches the exact count of any
	// other order (logical equivalence).
	card, err := algebra.Count(plan.Expr, cat)
	if err != nil {
		t.Fatal(err)
	}
	if card <= 0 {
		t.Errorf("final cardinality %d", card)
	}
	// Plan cost via TrueCost equals the DP's estimated cost under the
	// exact oracle.
	tc, err := TrueCost(q, plan.Order, cat)
	if err != nil {
		t.Fatal(err)
	}
	if tc != plan.EstCost {
		t.Errorf("TrueCost %v != exact-oracle EstCost %v", tc, plan.EstCost)
	}
}

// TestOptimizeIsMinimalByBruteForce verifies the DP against all left-deep
// permutations under the exact oracle.
func TestOptimizeIsMinimalByBruteForce(t *testing.T) {
	cat, q := chainFixture()
	plan, err := Optimize(q, Exact{Cat: cat})
	if err != nil {
		t.Fatal(err)
	}
	perms := [][]string{
		{"A", "B", "C"}, {"A", "C", "B"}, {"B", "A", "C"},
		{"B", "C", "A"}, {"C", "A", "B"}, {"C", "B", "A"},
	}
	best := -1.0
	for _, p := range perms {
		// Skip orders that force a cross product before any edge exists —
		// the DP avoids them, so only compare connected orders.
		if p[0] == "A" && p[1] == "C" || p[0] == "C" && p[1] == "A" {
			continue
		}
		tc, err := TrueCost(q, p, cat)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if best < 0 || tc < best {
			best = tc
		}
	}
	if plan.EstCost != best {
		t.Errorf("DP cost %v, brute-force best %v", plan.EstCost, best)
	}
}

func TestOptimizeSamplingOracle(t *testing.T) {
	cat, q := chainFixture()
	syn := estimator.NewSynopsis()
	rng := rand.New(rand.NewSource(3))
	for _, name := range q.Relations {
		r, _ := cat.Relation(name)
		if err := syn.AddDrawn(r, r.Len(), rng); err != nil { // census samples: estimates exact
			t.Fatal(err)
		}
	}
	plan, err := Optimize(q, Sampling{Syn: syn})
	if err != nil {
		t.Fatal(err)
	}
	// With census samples the sampling oracle equals the exact oracle.
	exactPlan, err := Optimize(q, Exact{Cat: cat})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(plan.Order, ",") != strings.Join(exactPlan.Order, ",") {
		t.Errorf("census-sample plan %v != exact plan %v", plan.Order, exactPlan.Order)
	}
	if plan.EstCost != exactPlan.EstCost {
		t.Errorf("census-sample cost %v != exact cost %v", plan.EstCost, exactPlan.EstCost)
	}
}

func TestOptimizeWithFilters(t *testing.T) {
	cat, q := chainFixture()
	q.Filters = map[string]algebra.Predicate{
		"A": algebra.Cmp{Col: "x", Op: algebra.EQ, Val: relation.Int(1)},
	}
	plan, err := Optimize(q, Exact{Cat: cat})
	if err != nil {
		t.Fatal(err)
	}
	// The filter must be inside the plan expression.
	card, err := algebra.Count(plan.Expr, cat)
	if err != nil {
		t.Fatal(err)
	}
	unfilteredQ := q
	unfilteredQ.Filters = nil
	unfiltered, err := Optimize(unfilteredQ, Exact{Cat: cat})
	if err != nil {
		t.Fatal(err)
	}
	uncard, err := algebra.Count(unfiltered.Expr, cat)
	if err != nil {
		t.Fatal(err)
	}
	if card >= uncard {
		t.Errorf("filtered plan result %d not smaller than unfiltered %d", card, uncard)
	}
}

func TestOptimizeDisconnectedUsesCrossProduct(t *testing.T) {
	cat, q := chainFixture()
	q.Edges = q.Edges[:1] // only A–B; C is disconnected
	plan, err := Optimize(q, Exact{Cat: cat})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Order) != 3 {
		t.Fatalf("order %v", plan.Order)
	}
	if _, err := algebra.Count(plan.Expr, cat); err != nil {
		t.Fatalf("disconnected plan not executable: %v", err)
	}
}

func TestQueryValidation(t *testing.T) {
	cat, q := chainFixture()
	_ = cat
	bad := []func(Query) Query{
		func(q Query) Query { q.Relations = nil; return q },
		func(q Query) Query { q.Relations = append(q.Relations, "A"); return q },
		func(q Query) Query { delete(q.Schemas, "B"); return q },
		func(q Query) Query { q.Edges = append(q.Edges, Edge{A: "A", B: "Z", ACol: "x", BCol: "x"}); return q },
		func(q Query) Query { q.Edges = append(q.Edges, Edge{A: "A", B: "A", ACol: "x", BCol: "x"}); return q },
		func(q Query) Query { q.Edges = append(q.Edges, Edge{A: "A", B: "B", ACol: "zz", BCol: "x"}); return q },
		func(q Query) Query { q.Edges = append(q.Edges, Edge{A: "A", B: "B", ACol: "x", BCol: "zz"}); return q },
	}
	for i, mod := range bad {
		q2 := mod(Query{
			Relations: append([]string{}, q.Relations...),
			Schemas:   map[string]*relation.Schema{"A": q.Schemas["A"], "B": q.Schemas["B"], "C": q.Schemas["C"]},
			Edges:     append([]Edge{}, q.Edges...),
		})
		if _, err := Optimize(q2, Exact{Cat: cat}); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

// TestCatalogOracleAVI checks the formula against hand-computed values.
func TestCatalogOracleAVI(t *testing.T) {
	cat, q := chainFixture()
	oracle, err := NewCatalog(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	// Singletons: exact base cardinalities.
	for i, want := range []float64{40, 20, 10} {
		got, err := oracle.SubsetCardinality(1 << i)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("base %s card %v, want %v", q.Relations[i], got, want)
		}
	}
	// A⋈B: 40·20/max(d_A.x=4, d_B.x=4) = 200 — AVI happens to be exact here.
	got, _ := oracle.SubsetCardinality(0b011)
	if got != 200 {
		t.Errorf("A⋈B AVI card %v, want 200", got)
	}
	// B⋈C: 20·10/max(d_B.y=20, d_C.y=10) = 10 — exact again (key join).
	got, _ = oracle.SubsetCardinality(0b110)
	if got != 10 {
		t.Errorf("B⋈C AVI card %v, want 10", got)
	}
	// Full plan through the catalog oracle is executable.
	plan, err := Optimize(q, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := algebra.Count(plan.Expr, cat); err != nil {
		t.Fatal(err)
	}
	// The direct Cardinality method is intentionally unsupported.
	if _, err := oracle.Cardinality(plan.Expr); err == nil {
		t.Error("catalog Cardinality(expr) should fail")
	}
}

// TestCorrelationFoolsCatalogNotSampling is the headline scenario: join
// attributes correlated across relations break AVI's estimate but not the
// sampling estimator, so the two oracles pick different orders — and
// sampling's order is truly cheaper.
func TestCorrelationFoolsCatalogNotSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 4000
	// A(u, k): u uniform over 200 values; k = u (perfectly correlated).
	a := relation.New("A", intSchema("u", "k", "aid"))
	for i := 0; i < n; i++ {
		u := int64(rng.Intn(200))
		a.MustAppend(relation.Tuple{relation.Int(u), relation.Int(u), relation.Int(int64(i))})
	}
	// B(u): matches A.u on only the first 10 values → A⋈B is selective.
	b := relation.New("B", intSchema("u", "bid"))
	for i := 0; i < 400; i++ {
		b.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(10))), relation.Int(int64(i))})
	}
	// C(k): matches A.k on values 0..199 uniformly, 2000 rows → A⋈C is big,
	// but AVI thinks it's as selective as A⋈B-ish because d_C.k = 200.
	c := relation.New("C", intSchema("k", "cid"))
	for i := 0; i < 2000; i++ {
		c.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(200))), relation.Int(int64(i))})
	}
	cat := algebra.MapCatalog{"A": a, "B": b, "C": c}
	q := Query{
		Relations: []string{"A", "B", "C"},
		Schemas:   map[string]*relation.Schema{"A": a.Schema(), "B": b.Schema(), "C": c.Schema()},
		Edges: []Edge{
			{A: "A", B: "B", ACol: "u", BCol: "u"},
			{A: "A", B: "C", ACol: "k", BCol: "k"},
		},
	}
	// Sampling oracle with a 10% synopsis.
	syn := estimator.NewSynopsis()
	for _, name := range q.Relations {
		r, _ := cat.Relation(name)
		if err := syn.AddDrawn(r, r.Len()/10, rng); err != nil {
			t.Fatal(err)
		}
	}
	sPlan, err := Optimize(q, Sampling{Syn: syn})
	if err != nil {
		t.Fatal(err)
	}
	ePlan, err := Optimize(q, Exact{Cat: cat})
	if err != nil {
		t.Fatal(err)
	}
	sCost, err := TrueCost(q, sPlan.Order, cat)
	if err != nil {
		t.Fatal(err)
	}
	eCost, err := TrueCost(q, ePlan.Order, cat)
	if err != nil {
		t.Fatal(err)
	}
	// The sampling plan should be (near-)optimal: within 2× of the exact
	// oracle's plan cost on this clearly separated scenario.
	if sCost > 2*eCost {
		t.Errorf("sampling plan cost %v vs optimal %v (orders %v vs %v)",
			sCost, eCost, sPlan.Order, ePlan.Order)
	}
}
