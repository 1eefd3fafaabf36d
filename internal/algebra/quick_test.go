package algebra

import (
	"math/rand"
	"testing"
	"testing/quick"

	"relest/internal/relation"
)

// Property-based tests (testing/quick) for the algebra layer.

// TestQuickPredicateLaws checks boolean algebra laws of the predicate
// combinators on random tuples: De Morgan, double negation, and the
// identity elements of And/Or.
func TestQuickPredicateLaws(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindInt},
	)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tup := relation.Tuple{relation.Int(int64(rng.Intn(10))), relation.Int(int64(rng.Intn(10)))}
		p := Cmp{Col: "a", Op: LT, Val: relation.Int(int64(rng.Intn(10)))}
		q := Cmp{Col: "b", Op: GE, Val: relation.Int(int64(rng.Intn(10)))}
		eval := func(pred Predicate) bool {
			fn, err := pred.bind(schema)
			if err != nil {
				t.Fatal(err)
			}
			return fn(tup)
		}
		// De Morgan: ¬(p ∧ q) == (¬p ∨ ¬q)
		if eval(Not{And{p, q}}) != eval(Or{Not{p}, Not{q}}) {
			return false
		}
		// Double negation.
		if eval(Not{Not{p}}) != eval(p) {
			return false
		}
		// Identity elements.
		if eval(And{p}) != eval(p) || eval(Or{q}) != eval(q) {
			return false
		}
		// Empty And is true; empty Or is false.
		if !eval(And{}) || eval(Or{}) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickSetOpAlgebra checks classic set identities through the exact
// evaluator on random relations: |A∪B| + |A∩B| = |A| + |B| and
// |A−B| + |A∩B| = |A|.
func TestQuickSetOpAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cat, bases := randomCatalog(rng)
		a, b := bases[0], bases[1]
		count := func(e *Expr) int64 {
			c, err := Count(e, cat)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		union := count(Must(Union(a, b)))
		inter := count(Must(Intersect(a, b)))
		diff := count(Must(Diff(a, b)))
		na, nb := count(a), count(b)
		if union+inter != na+nb {
			return false
		}
		if diff+inter != na {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// overlapFixture builds the canonical overlapping-union shape: a 3-way
// union of joins that differ only in the selection on their last relation,
//
//	(R ⋈ S ⋈ σ_p1 T) ∪ (R ⋈ S ⋈ σ_p2 T) ∪ (R ⋈ S ⋈ σ_p3 T),
//
// a 7-term polynomial whose terms repeat every relation (the intersection
// terms carry R, S and T two and three times). The p_i are pairwise disjoint
// ranges, so the intersection terms have empty T candidate lists.
func overlapFixture() (MapCatalog, *Expr) {
	rs := relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindInt},
	)
	ss := relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "c", Kind: relation.KindInt},
	)
	ts := relation.MustSchema(
		relation.Column{Name: "b", Kind: relation.KindInt},
		relation.Column{Name: "x", Kind: relation.KindInt},
	)
	r := relation.New("R", rs)
	for i := 0; i < 20; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i % 8)), relation.Int(int64(i % 12))})
	}
	s := relation.New("S", ss)
	for i := 0; i < 40; i++ {
		s.MustAppend(relation.Tuple{relation.Int(int64(i % 8)), relation.Int(int64(i))})
	}
	tt := relation.New("T", ts)
	for i := 0; i < 180; i++ { // lcm(12, 90): one full cycle, so T is duplicate-free
		tt.MustAppend(relation.Tuple{relation.Int(int64(i % 12)), relation.Int(int64(i % 90))})
	}
	cat := MapCatalog{"R": r, "S": s, "T": tt}
	term := func(lo, hi int64) *Expr {
		rsJoin := Must(Join(BaseOf(r), BaseOf(s), []On{{Left: "a", Right: "a"}}, nil, "s_"))
		sel := Must(Select(BaseOf(tt), And{
			Cmp{Col: "x", Op: GE, Val: relation.Int(lo)},
			Cmp{Col: "x", Op: LT, Val: relation.Int(hi)},
		}))
		return Must(Join(rsJoin, sel, []On{{Left: "b", Right: "b"}}, nil, "t_"))
	}
	e := Must(Union(Must(Union(term(0, 30), term(30, 60))), term(60, 90)))
	return cat, e
}

// exactCountAgrees checks the four exact readings of COUNT(e) against one
// another: the streaming executor, the materializing evaluator, the
// polynomial's ExactCount and Σ coef·PreparedTerm.Count() — and, per term,
// that CountPart summed over 1 and over 16 parts reproduces Count().
func exactCountAgrees(t *testing.T, e *Expr, cat Catalog) bool {
	t.Helper()
	want, err := Count(e, cat)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Eval(e, cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Normalize(e)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := p.ExactCount(cat)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := range p.Terms {
		tm := &p.Terms[i]
		inst, err := BindInstances(tm, cat)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := Prepare(tm, inst)
		if err != nil {
			t.Fatal(err)
		}
		c := pt.Count()
		for _, parts := range []int{1, 16} {
			total := 0.0
			for part := 0; part < parts; part++ {
				total += pt.CountPart(part, parts)
			}
			if total != c {
				t.Errorf("%s term %d: CountPart over %d parts sums to %v, Count() = %v", e, i, parts, total, c)
				return false
			}
		}
		sum += float64(tm.Coef) * c
	}
	if exact != float64(want) || sum != float64(want) || rel.Len() != int(want) {
		t.Errorf("%s: Count %d, len(Eval) %d, ExactCount %v, Σ coef·Count() %v", e, want, rel.Len(), exact, sum)
		return false
	}
	return true
}

// TestQuickExactCountMatchesCount: the counting polynomial evaluated with
// unit weights over the full relations must agree with the streaming
// executor on random π-free expressions — shallow ones through
// testing/quick, then the multi-term shapes with repeated relations (the
// canonical overlapping union and deeper random nestings of 2–120 terms).
func TestQuickExactCountMatchesCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cat, bases := randomCatalog(rng)
		return exactCountAgrees(t, randomExpr(rng, bases, 2), cat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}

	cat, e := overlapFixture()
	exactCountAgrees(t, e, cat)
	rng := rand.New(rand.NewSource(7))
	multi := 0
	for trial := 0; trial < 80; trial++ {
		cat, bases := randomCatalog(rng)
		e := randomExpr(rng, bases, 3)
		p, err := Normalize(e)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, e, err)
		}
		if p.NumTerms() < 2 || p.NumTerms() > 120 {
			continue
		}
		multi++
		exactCountAgrees(t, e, cat)
	}
	if multi == 0 {
		t.Error("randomized trials produced no multi-term polynomial; the generator has lost its coverage")
	}
}

// TestQuickJoinCommutative: |L ⋈ R| == |R ⋈ L| through both evaluation
// paths.
func TestQuickJoinCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cat, bases := randomCatalog(rng)
		l, r := bases[0], bases[1]
		lr := Must(Join(l, r, []On{{Left: "a", Right: "a"}}, nil, "x"))
		rl := Must(Join(r, l, []On{{Left: "a", Right: "a"}}, nil, "y"))
		c1, err := Count(lr, cat)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := Count(rl, cat)
		if err != nil {
			t.Fatal(err)
		}
		return c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
