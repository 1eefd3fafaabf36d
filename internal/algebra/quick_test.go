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

// TestQuickExactCountMatchesCount: the counting polynomial evaluated with
// unit weights over the full relations must agree with the streaming
// executor on random π-free expressions.
func TestQuickExactCountMatchesCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cat, bases := randomCatalog(rng)
		e := randomExpr(rng, bases, 2)
		want, err := Count(e, cat)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.ExactCount(cat)
		if err != nil {
			t.Fatal(err)
		}
		return got == float64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
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
