package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"relest/internal/relation"
)

func TestNormalizeBase(t *testing.T) {
	_, r, _, _ := fixtures()
	p, err := Normalize(r)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTerms() != 1 || p.Terms[0].Coef != 1 || len(p.Terms[0].Occs) != 1 {
		t.Fatalf("base polynomial: %+v", p)
	}
	if p.Terms[0].Occs[0].RelName != "R" {
		t.Errorf("occ relation %q", p.Terms[0].Occs[0].RelName)
	}
	if len(p.Terms[0].Out) != 2 {
		t.Errorf("out mapping %v", p.Terms[0].Out)
	}
}

func TestNormalizeShapes(t *testing.T) {
	_, r, s, _ := fixtures()
	join := Must(Join(r, s, []On{{Left: "a", Right: "a"}}, nil, "S"))
	cases := []struct {
		name  string
		e     *Expr
		terms int
	}{
		{"join", join, 1},
		{"union", Must(Union(r, s)), 3},
		{"diff", Must(Diff(r, s)), 2},
		{"intersect", Must(Intersect(r, s)), 1},
		{"product", Must(Product(r, s, "S")), 1},
		// Nested: (R ∪ S) − R = |R∪S| terms (3) + paired-intersection terms (3·1).
		{"nested", Must(Diff(Must(Union(r, s)), r)), 6},
	}
	for _, c := range cases {
		p, err := Normalize(c.e)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.NumTerms() != c.terms {
			t.Errorf("%s: %d terms, want %d", c.name, p.NumTerms(), c.terms)
		}
	}
}

func TestNormalizeRejectsProjection(t *testing.T) {
	_, r, _, _ := fixtures()
	pr := Must(Project(r, "a"))
	if _, err := Normalize(pr); err == nil {
		t.Error("π should not normalize")
	}
}

func TestNormalizePredPushdown(t *testing.T) {
	_, r, s, _ := fixtures()
	// Single-occurrence predicate on a join must be pushed to the occurrence.
	j := Must(Join(r, s, []On{{Left: "a", Right: "a"}}, nil, "S"))
	sel := Must(Select(j, Cmp{Col: "b", Op: GT, Val: relation.Int(15)}))
	p, err := Normalize(sel)
	if err != nil {
		t.Fatal(err)
	}
	term := p.Terms[0]
	if len(term.Preds) != 0 {
		t.Errorf("single-column predicate not pushed down: %d residual preds", len(term.Preds))
	}
	total := 0
	for _, o := range term.Occs {
		total += len(o.LocalPreds)
	}
	if total != 1 {
		t.Errorf("expected 1 local pred, got %d", total)
	}
	// Multi-occurrence predicate must remain a term predicate.
	sel2 := Must(Select(j, ColCmp{A: "b", Op: LT, B: "S.b"}))
	p2, err := Normalize(sel2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Terms[0].Preds) != 1 {
		t.Errorf("cross-occurrence predicate should stay residual, got %d", len(p2.Terms[0].Preds))
	}
}

func TestPolynomialIntrospection(t *testing.T) {
	_, r, s, _ := fixtures()
	u := Must(Union(r, s))
	p, err := Normalize(u)
	if err != nil {
		t.Fatal(err)
	}
	names := p.RelationNames()
	if len(names) != 2 {
		t.Errorf("RelationNames = %v", names)
	}
	if p.MaxOccurrences() != 1 {
		t.Errorf("MaxOccurrences = %d", p.MaxOccurrences())
	}
	// Self-intersection has two occurrences of R in one term.
	ii := Must(Intersect(r, r))
	p2, _ := Normalize(ii)
	if p2.MaxOccurrences() != 2 {
		t.Errorf("self-intersect MaxOccurrences = %d", p2.MaxOccurrences())
	}
}

// TestPolynomialMatchesExactEvaluator is the load-bearing equivalence test:
// for a fixed zoo of expressions plus randomly generated ones, the counting
// polynomial evaluated with unit weights over the full relations must equal
// the exact evaluator's COUNT.
func TestPolynomialMatchesExactEvaluator(t *testing.T) {
	cat, r, s, _ := fixtures()
	exprs := []*Expr{
		r,
		Must(Select(r, Cmp{Col: "a", Op: GE, Val: relation.Int(2)})),
		Must(Join(r, s, []On{{Left: "a", Right: "a"}}, nil, "S")),
		Must(Product(r, s, "S")),
		Must(Union(r, s)),
		Must(Intersect(r, s)),
		Must(Diff(r, s)),
		Must(Diff(s, r)),
		Must(Union(Must(Select(r, Cmp{Col: "a", Op: GE, Val: relation.Int(2)})), s)),
		Must(Diff(Must(Union(r, s)), Must(Intersect(r, s)))), // symmetric difference
		Must(Intersect(Must(Union(r, s)), r)),
		Must(Diff(r, Must(Diff(r, s)))), // = R ∩ S
		Must(Select(Must(Join(r, s, []On{{Left: "a", Right: "a"}}, nil, "S")), ColCmp{A: "b", Op: NE, B: "S.b"})),
		Must(Intersect(r, r)), // self: |R|
		Must(Diff(r, r)),      // empty
		Must(Union(r, r)),     // |R|
	}
	for i, e := range exprs {
		want, err := Count(e, cat)
		if err != nil {
			t.Fatalf("expr %d (%s): eval: %v", i, e, err)
		}
		p, err := Normalize(e)
		if err != nil {
			t.Fatalf("expr %d (%s): normalize: %v", i, e, err)
		}
		got, err := p.ExactCount(cat)
		if err != nil {
			t.Fatalf("expr %d (%s): exact count: %v", i, e, err)
		}
		if got != float64(want) {
			t.Errorf("expr %d (%s): polynomial %v != exact %d", i, e, got, want)
		}
	}
}

// TestAttachPredicateBindError: a predicate that does not resolve against
// the schema it is attached under is an error from attachPredicate and from
// Normalize, not a panic. The public constructors bind every predicate at
// construction, so the mismatch is built by hand.
func TestAttachPredicateBindError(t *testing.T) {
	xy := relation.MustSchema(
		relation.Column{Name: "x", Kind: relation.KindInt},
		relation.Column{Name: "y", Kind: relation.KindInt},
	)
	bp := must(bindPredicate(Cmp{Col: "a", Op: EQ, Val: relation.Int(1)}, abSchema(), oneRow(abSchema())))
	p := must(Normalize(Base("R", xy)))
	if err := attachPredicate(&p.Terms[0], &bp, xy); err == nil {
		t.Error("attachPredicate bound column a against (x, y)")
	}
	sel := &Expr{op: OpSelect, schema: xy, left: Base("R", xy), pred: bp}
	if _, err := Normalize(sel); err == nil {
		t.Error("Normalize accepted a predicate that does not bind")
	}
}

// randomCatalog builds small random duplicate-free relations with matching
// layouts so set operations are always applicable between them.
func randomCatalog(rng *rand.Rand) (MapCatalog, []*Expr) {
	schema := func() *relation.Schema {
		return relation.MustSchema(
			relation.Column{Name: "a", Kind: relation.KindInt},
			relation.Column{Name: "b", Kind: relation.KindInt},
		)
	}
	cat := MapCatalog{}
	var bases []*Expr
	for _, name := range []string{"A", "B", "C"} {
		r := relation.New(name, schema())
		seen := map[[2]int64]bool{}
		n := 3 + rng.Intn(6)
		for len(seen) < n {
			k := [2]int64{int64(rng.Intn(5)), int64(rng.Intn(5) * 10)}
			if !seen[k] {
				seen[k] = true
				r.MustAppend(relation.Tuple{relation.Int(k[0]), relation.Int(k[1])})
			}
		}
		cat[name] = r
		bases = append(bases, BaseOf(r))
	}
	return cat, bases
}

// prefixCounter hands out unique disambiguation prefixes for nested
// joins/products in the random generator.
var prefixCounter int

func nextPrefix(base string) string {
	prefixCounter++
	return fmt.Sprintf("%s%d", base, prefixCounter)
}

// randomExpr generates a random π-free expression. All base relations share
// a layout, and joins/products double the width, so set operations are only
// generated between subexpressions of equal width.
func randomExpr(rng *rand.Rand, bases []*Expr, depth int) *Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		return bases[rng.Intn(len(bases))]
	}
	switch rng.Intn(6) {
	case 0: // select
		child := randomExpr(rng, bases, depth-1)
		col := child.Schema().Column(rng.Intn(child.Schema().Len())).Name
		ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
		v := relation.Int(int64(rng.Intn(5)))
		if rng.Intn(2) == 0 {
			v = relation.Int(int64(rng.Intn(5) * 10))
		}
		return Must(Select(child, Cmp{Col: col, Op: ops[rng.Intn(len(ops))], Val: v}))
	case 1: // join on a random column pair of equal position class
		l := randomExpr(rng, bases, depth-1)
		rr := randomExpr(rng, bases, depth-1)
		lc := l.Schema().Column(rng.Intn(l.Schema().Len())).Name
		rc := rr.Schema().Column(rng.Intn(rr.Schema().Len())).Name
		return Must(Join(l, rr, []On{{Left: lc, Right: rc}}, nil, nextPrefix("j")))
	case 2: // product
		l := randomExpr(rng, bases, depth-1)
		rr := randomExpr(rng, bases, depth-1)
		return Must(Product(l, rr, nextPrefix("p")))
	default: // set ops between equal-layout children
		l := randomExpr(rng, bases, depth-1)
		rr := randomExpr(rng, bases, depth-1)
		if !l.Schema().EqualLayout(rr.Schema()) {
			// Fall back to a base-vs-base set op, always compatible.
			l = bases[rng.Intn(len(bases))]
			rr = bases[rng.Intn(len(bases))]
		}
		switch rng.Intn(3) {
		case 0:
			return Must(Union(l, rr))
		case 1:
			return Must(Intersect(l, rr))
		default:
			return Must(Diff(l, rr))
		}
	}
}

func TestPolynomialMatchesExactRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		cat, bases := randomCatalog(rng)
		e := randomExpr(rng, bases, 3)
		p, err := Normalize(e)
		if err != nil {
			t.Fatalf("trial %d (%s): normalize: %v", trial, e, err)
		}
		if p.NumTerms() > 200 {
			continue // pathological nesting; skip for test speed
		}
		want, err := Count(e, cat)
		if err != nil {
			t.Fatalf("trial %d (%s): eval: %v", trial, e, err)
		}
		got, err := p.ExactCount(cat)
		if err != nil {
			t.Fatalf("trial %d (%s): exact count: %v", trial, e, err)
		}
		if got != float64(want) {
			t.Errorf("trial %d (%s): polynomial %v != exact %d", trial, e, got, want)
		}
	}
}

func TestEnumerateAssignments(t *testing.T) {
	cat, r, s, _ := fixtures()
	j := Must(Join(r, s, []On{{Left: "a", Right: "a"}}, nil, "S"))
	p, err := Normalize(j)
	if err != nil {
		t.Fatal(err)
	}
	term := &p.Terms[0]
	inst, err := BindInstances(term, cat)
	if err != nil {
		t.Fatal(err)
	}
	var count int
	err = term.EnumerateAssignments(inst, func(rows []int) bool {
		if len(rows) != 2 {
			t.Fatalf("assignment width %d", len(rows))
		}
		// The joined tuples must actually agree on column a.
		a0 := inst[0].Value(rows[0], 0)
		a1 := inst[1].Value(rows[1], 0)
		if !a0.Equal(a1) {
			t.Fatalf("assignment violates join: %v vs %v", a0, a1)
		}
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("enumerated %d assignments, want 2", count)
	}
	// Early stop.
	count = 0
	_ = term.EnumerateAssignments(inst, func(rows []int) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop enumerated %d", count)
	}
}

func TestCountAssignmentsProductTail(t *testing.T) {
	cat, r, s, _ := fixtures()
	// Pure product: the tail optimization must multiply, not enumerate;
	// verify it produces the right number anyway.
	pr := Must(Product(r, s, "S"))
	p, err := Normalize(pr)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BindInstances(&p.Terms[0], cat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Terms[0].CountAssignments(inst)
	if err != nil {
		t.Fatal(err)
	}
	if got != 12 {
		t.Errorf("product count %v, want 12", got)
	}
}

func TestBindInstancesErrors(t *testing.T) {
	cat, r, _, _ := fixtures()
	p, _ := Normalize(r)
	term := &p.Terms[0]
	if _, err := BindInstances(term, MapCatalog{}); err == nil {
		t.Error("missing relation should fail")
	}
	// Wrong layout under the same name.
	bad := relation.New("R", relation.MustSchema(relation.Column{Name: "x", Kind: relation.KindString}))
	if _, err := BindInstances(term, MapCatalog{"R": bad}); err == nil {
		t.Error("layout mismatch should fail")
	}
	_ = cat
}
