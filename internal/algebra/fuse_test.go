package algebra

import (
	"testing"

	"relest/internal/relation"
)

// fuseCatalog is R(a, b) with 12 distinct rows and S(a, b) with 8.
func fuseCatalog() (MapCatalog, *Expr, *Expr) {
	r, s := relation.New("R", abSchema()), relation.New("S", abSchema())
	for i := 0; i < 12; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i % 5)), relation.Int(int64(i))})
	}
	for i := 0; i < 8; i++ {
		s.MustAppend(relation.Tuple{relation.Int(int64(i % 4)), relation.Int(int64(i))})
	}
	return MapCatalog{"R": r, "S": s}, BaseOf(r), BaseOf(s)
}

// TestFuseSetOperations: set operations over selections of R joined to S
// fuse into one term — weighted where the selections differ, plain for
// an ∩ — or into none where they cancel, and the fused polynomial still
// counts len(Eval). Asked about a relation that is not duplicate-free,
// Fuse returns the polynomial as it was.
func TestFuseSetOperations(t *testing.T) {
	cat, r, s := fuseCatalog()
	sel := func(col string, op CmpOp, v int64) *Expr {
		return Must(Select(r, Cmp{Col: col, Op: op, Val: relation.Int(v)}))
	}
	a, b, c := sel("b", LT, 7), sel("a", GE, 2), sel("b", GT, 9)
	on := []On{{Left: "a", Right: "a"}}
	cases := []struct {
		name     string
		inner    *Expr
		terms    int
		weighted bool
	}{
		{"union", Must(Union(a, b)), 1, true},
		{"intersect", Must(Intersect(a, b)), 1, false},
		{"except", Must(Diff(a, b)), 1, true},
		{"union of intersect", Must(Union(Must(Intersect(a, b)), c)), 1, true},
		{"union of union", Must(Union(Must(Union(a, b)), c)), 1, true},
		{"union with itself", Must(Union(a, a)), 1, false},
		{"except itself", Must(Diff(a, a)), 0, false},
	}
	for _, tc := range cases {
		e := Must(Join(tc.inner, s, on, nil, "S"))
		p := must(Normalize(e))
		want, err := Count(e, cat)
		if err != nil {
			t.Fatal(err)
		}
		fused := Fuse(p, func(string) bool { return true })
		if fused.NumTerms() != tc.terms {
			t.Errorf("%s: %d fused terms, want %d", tc.name, fused.NumTerms(), tc.terms)
			continue
		}
		if tc.terms > 0 && (fused.Terms[0].Weight != nil) != tc.weighted {
			t.Errorf("%s: weighted %v, want %v", tc.name, fused.Terms[0].Weight != nil, tc.weighted)
		}
		if fused.MaxOccurrences() > 1 {
			t.Errorf("%s: a relation still occurs %d times in a term", tc.name, fused.MaxOccurrences())
		}
		if got := must(fused.ExactCount(cat)); got != float64(want) {
			t.Errorf("%s: fused ExactCount %v, Count %d", tc.name, got, want)
		}

		asked := 0
		kept := Fuse(p, func(string) bool { asked++; return false })
		if kept.NumTerms() != p.NumTerms() || asked == 0 {
			t.Errorf("%s: over duplicates Fuse made %d terms from %d (asked %d times)", tc.name, kept.NumTerms(), p.NumTerms(), asked)
		}
	}

	// Without a repeated relation nothing is asked and nothing changes.
	p := must(Normalize(Must(Join(a, s, on, nil, "S"))))
	if got := Fuse(p, func(string) bool { t.Error("asked about a relation no term repeats"); return true }); got.NumTerms() != 1 || got.Terms[0].Weight != nil {
		t.Errorf("a plain join fused into %+v", got)
	}
}

// TestFuseLeavesUnnamedPredicates: the occurrences of a hand-built term
// carry no predicate names, so such a term collapses but joins no fused
// group.
func TestFuseLeavesUnnamedPredicates(t *testing.T) {
	cat, r, _ := fuseCatalog()
	p := must(Normalize(Must(Union(Must(Select(r, Cmp{Col: "b", Op: LT, Val: relation.Int(7)})), r))))
	for i := range p.Terms {
		for j := range p.Terms[i].Occs {
			p.Terms[i].Occs[j].ids = nil
		}
	}
	fused := Fuse(p, func(string) bool { return true })
	if fused.NumTerms() != p.NumTerms() || fused.MaxOccurrences() != 1 {
		t.Errorf("fused %d terms of max %d occurrences from %d", fused.NumTerms(), fused.MaxOccurrences(), p.NumTerms())
	}
	if got, want := must(fused.ExactCount(cat)), must(p.ExactCount(cat)); got != want {
		t.Errorf("fused ExactCount %v, unfused %v", got, want)
	}
}
