package algebra

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"relest/internal/parallel"
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
		eval := func(pred Predicate) bool { return evalOnRow(t, pred, schema, tup) }
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

// countAt runs Count with the process-default worker count pinned to w.
func countAt(w int, e *Expr, cat Catalog) (int64, error) {
	parallel.SetWorkers(w)
	defer parallel.SetWorkers(0)
	return Count(e, cat)
}

// countMatchesEval checks Count ≡ len(Eval) at workers 1 and 4; when Eval
// fails, Count must fail with Eval's exact error text. It returns Eval's
// result (nil when Eval failed) and whether every check held.
func countMatchesEval(t *testing.T, e *Expr, cat Catalog) (*relation.Relation, bool) {
	t.Helper()
	rel, werr := Eval(e, cat)
	for _, w := range []int{1, 4} {
		got, err := countAt(w, e, cat)
		if werr != nil || err != nil {
			if werr == nil || err == nil || werr.Error() != err.Error() {
				t.Errorf("%s workers=%d: Eval err %v, Count err %v", e, w, werr, err)
				return nil, false
			}
			continue
		}
		if got != int64(rel.Len()) {
			t.Errorf("%s workers=%d: Count %d, len(Eval) %d", e, w, got, rel.Len())
			return nil, false
		}
	}
	return rel, true
}

// exactCountAgrees checks the exact readings of COUNT(e) against one
// another: Count at workers 1 and 4 equals len(Eval) (countMatchesEval),
// and for π-free expressions so do the polynomial's ExactCount and
// Σ coef·PreparedTerm.Count() — with, per term, CountPart summed over 1
// and over 16 parts reproducing Count().
func exactCountAgrees(t *testing.T, e *Expr, cat Catalog) bool {
	t.Helper()
	rel, ok := countMatchesEval(t, e, cat)
	if !ok {
		return false
	}
	if rel == nil {
		t.Fatalf("%s: unexpected evaluation error", e)
	}
	if e.HasProjection() {
		return true
	}
	want := int64(rel.Len())
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
	if exact != float64(want) || sum != float64(want) {
		t.Errorf("%s: len(Eval) %d, ExactCount %v, Σ coef·Count() %v", e, want, exact, sum)
		return false
	}
	return fusedCountAgrees(t, e, p, cat, want)
}

// setRelations is the duplicate-free predicate of a catalog: a relation
// fuses when it holds no duplicate rows. Each answer is computed once.
func setRelations(cat Catalog) func(string) bool {
	memo := map[string]bool{}
	return func(name string) bool {
		set, ok := memo[name]
		if !ok {
			r, found := cat.Relation(name)
			set = found && r.RowsDistinct(r.Len())
			memo[name] = set
		}
		return set
	}
}

// fusedCountAgrees checks that p, the polynomial of e, fused over cat's
// duplicate-free relations, still evaluates to len(Eval), want, with unit
// sampling weights, and holds no more terms than p.
func fusedCountAgrees(t *testing.T, e *Expr, p Polynomial, cat Catalog, want int64) bool {
	t.Helper()
	fused := Fuse(p, setRelations(cat))
	got, err := fused.ExactCount(cat)
	if err != nil {
		t.Fatal(err)
	}
	if got != float64(want) || fused.NumTerms() > p.NumTerms() {
		t.Errorf("%s: len(Eval) %d, fused ExactCount %v over %d terms (from %d)", e, want, got, fused.NumTerms(), p.NumTerms())
		return false
	}
	return true
}

// TestQuickExactCountMatchesCount: Count, len(Eval) and the counting
// polynomial evaluated with unit weights over the full relations agree on
// random π-free expressions — shallow ones through testing/quick, then the
// multi-term shapes with repeated relations (the canonical overlapping
// union and deeper random nestings of 2–120 terms) — and Count ≡ len(Eval)
// holds on every other input family below, at workers 1 and 4.
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

	// Depth-3 random π-free expressions of every polynomial size, with no
	// term-count filter: Count ≡ len(Eval) at workers 1 and 4.
	t.Run("randomized", func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 150; trial++ {
			cat, bases := randomCatalog(rng)
			countMatchesEval(t, randomExpr(rng, bases, 3), cat)
		}
	})

	// The same depth-3 family, fused over its duplicate-free relations:
	// the fused polynomial's ExactCount, weighted terms summing their row
	// weights, is len(Eval). Enough trials collapse an identity and fuse
	// a weighted term that both rewrites are exercised.
	t.Run("fused", func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		collapsed, weighted := 0, 0
		for trial := 0; trial < 400; trial++ {
			cat, bases := randomCatalog(rng)
			e := randomExpr(rng, bases, 3)
			rel, ok := countMatchesEval(t, e, cat)
			if !ok || rel == nil {
				continue
			}
			p, err := Normalize(e)
			if err != nil {
				t.Fatal(err)
			}
			fusedCountAgrees(t, e, p, cat, int64(rel.Len()))
			fused := Fuse(p, setRelations(cat))
			if fused.MaxOccurrences() < p.MaxOccurrences() {
				collapsed++
			}
			for _, tm := range fused.Terms {
				if tm.Weight != nil {
					weighted++
					break
				}
			}
		}
		if collapsed < 20 || weighted < 3 {
			t.Errorf("fusion exercised too little: %d collapses, %d weighted polynomials", collapsed, weighted)
		}
	})

	// π over joins and set operations: Eval's dedup is the count.
	t.Run("projected", func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		for trial := 0; trial < 60; trial++ {
			cat, bases := randomCatalog(rng)
			inner := randomExpr(rng, bases, 2)
			cols := inner.Schema().Columns()
			exactCountAgrees(t, Must(Project(inner, cols[rng.Intn(len(cols))].Name)), cat)
		}
	})

	// The committed FuzzNormalize corpus, decoded with the fuzzer's own
	// reader, so the corpus keeps covering every exact reading.
	t.Run("fuzz corpus", func(t *testing.T) {
		dir := filepath.Join("testdata", "fuzz", "FuzzNormalize")
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read corpus dir: %v", err)
		}
		if len(entries) == 0 {
			t.Fatal("empty fuzz corpus")
		}
		for _, ent := range entries {
			raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(string(raw), "\n")
			if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") {
				t.Fatalf("%s: unexpected corpus format", ent.Name())
			}
			data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s: unquote corpus payload: %v", ent.Name(), err)
			}
			cat := fuzzCatalog()
			exactCountAgrees(t, (&exprReader{data: []byte(data)}).expr(cat, 4), cat)
		}
	})

	// A selection above a join that reads a column of the join's right
	// operand when that operand is itself a set operation.
	t.Run("select above join over union", func(t *testing.T) {
		r := relation.New("R", abSchema())
		for i := 0; i < 8192; i++ {
			r.MustAppend(relation.Tuple{relation.Int(int64(i % 16)), relation.Int(int64(i))})
		}
		s1, s2 := relation.New("S1", abSchema()), relation.New("S2", abSchema())
		for i := 0; i < 16; i++ {
			s1.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i * 10))})
			s2.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i*10 + 1))})
		}
		u := Must(Union(BaseOf(s1), BaseOf(s2)))
		j := Must(Join(BaseOf(r), u, []On{{Left: "a", Right: "a"}}, nil, "u"))
		exactCountAgrees(t, Must(Select(j, Cmp{Col: "u.b", Op: GE, Val: relation.Int(0)})), MapCatalog{"R": r, "S1": s1, "S2": s2})
	})

	// A σ/⋈ term large enough to split into partitionParts parts, so
	// workers 4 really counts the parts concurrently.
	t.Run("partitioned term", func(t *testing.T) {
		r, s := relation.New("R", abSchema()), relation.New("S", abSchema())
		for i := 0; i < 8192; i++ {
			r.MustAppend(relation.Tuple{relation.Int(int64(i % 1024)), relation.Int(int64(i))})
			s.MustAppend(relation.Tuple{relation.Int(int64(i % 1024)), relation.Int(int64(-i))})
		}
		cat := MapCatalog{"R": r, "S": s}
		j := Must(Join(BaseOf(r), BaseOf(s), []On{{Left: "a", Right: "a"}}, nil, "s"))
		e := Must(Select(j, Cmp{Col: "s.b", Op: GT, Val: relation.Int(-4096)}))
		p := must(Normalize(e))
		pt := must(Prepare(&p.Terms[0], must(BindInstances(&p.Terms[0], cat))))
		if pt.Parts() != partitionParts {
			t.Fatalf("term splits into %d parts, want %d", pt.Parts(), partitionParts)
		}
		exactCountAgrees(t, e, cat)
	})

	// Relations with duplicate rows: ∪, ∩, − and π count Eval's
	// duplicate-free result, σ/⋈/× count the bag.
	t.Run("duplicate rows", func(t *testing.T) {
		r, s := relation.New("R", abSchema()), relation.New("S", abSchema())
		for _, v := range []int64{1, 1, 2, 3, 3} {
			r.MustAppend(relation.Tuple{relation.Int(v), relation.Int(v)})
		}
		for _, v := range []int64{1, 2, 2, 4} {
			s.MustAppend(relation.Tuple{relation.Int(v), relation.Int(v)})
		}
		cat := MapCatalog{"R": r, "S": s}
		rb, sb := BaseOf(r), BaseOf(s)
		for _, c := range []struct {
			e    *Expr
			want int
		}{
			{rb, 5},
			{Must(Join(rb, sb, []On{{Left: "a", Right: "a"}}, nil, "s")), 4},
			{Must(Union(rb, sb)), 4},
			{Must(Union(rb, rb)), 3},
			{Must(Intersect(rb, sb)), 2},
			{Must(Diff(rb, sb)), 1},
			{Must(Project(rb, "a")), 3},
		} {
			if rel, ok := countMatchesEval(t, c.e, cat); ok && rel.Len() != c.want {
				t.Errorf("%s: Count %d, want %d", c.e, rel.Len(), c.want)
			}
		}
	})

	// A two-occurrence ColCmp residual inside the right operand of a ⋈,
	// and the same residual in both operands of an ∩: combining terms
	// shifts the predicate's occurrences, never its bound closure. (Count
	// routes ∩ to Eval; exactCountAgrees also checks Normalize(e).ExactCount.)
	t.Run("relocated residual", func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
		for trial := 0; trial < 40; trial++ {
			cat, bases := randomCatalog(rng)
			residual := func() *Expr {
				pre := nextPrefix("r")
				j := Must(Join(bases[0], bases[1], []On{{Left: "a", Right: "a"}}, nil, pre))
				return Must(Select(j, ColCmp{A: "b", Op: ops[rng.Intn(len(ops))], B: pre + ".b"}))
			}
			for _, c := range []struct {
				e    *Expr
				occs [][]int // Occs of the first term's residual predicates
			}{
				{Must(Join(bases[2], residual(), []On{{Left: "a", Right: "a"}}, nil, nextPrefix("q"))), [][]int{{1, 2}}},
				{Must(Intersect(residual(), residual())), [][]int{{0, 1}, {2, 3}}},
			} {
				p := must(Normalize(c.e))
				var got [][]int
				for _, pr := range p.Terms[0].Preds {
					got = append(got, pr.Occs)
				}
				if fmt.Sprint(got) != fmt.Sprint(c.occs) {
					t.Fatalf("%s: residual occurrences %v, want %v", c.e, got, c.occs)
				}
				exactCountAgrees(t, c.e, cat)
			}
		}
	})

	// A θ-join whose θ reads both sides, with NULLs in the compared
	// columns: a comparison with NULL is false on every route.
	t.Run("theta join over nulls", func(t *testing.T) {
		r, s := relation.New("R", abSchema()), relation.New("S", abSchema())
		b := func(i int) relation.Value {
			if i%3 == 0 {
				return relation.Null()
			}
			return relation.Int(int64(i % 7))
		}
		for i := 0; i < 30; i++ {
			r.MustAppend(relation.Tuple{relation.Int(int64(i % 4)), b(i)})
			s.MustAppend(relation.Tuple{relation.Int(int64(i % 5)), b(i + 1)})
		}
		cat := MapCatalog{"R": r, "S": s}
		for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
			e := Must(Join(BaseOf(r), BaseOf(s), []On{{Left: "a", Right: "a"}}, ColCmp{A: "b", Op: op, B: "s.b"}, "s"))
			want := 0
			for i := 0; i < r.Len(); i++ {
				for j := 0; j < s.Len(); j++ {
					rb, sb := r.Value(i, 1), s.Value(j, 1)
					if r.Value(i, 0).Equal(s.Value(j, 0)) && !rb.IsNull() && !sb.IsNull() && op.holds(rb.Compare(sb)) {
						want++
					}
				}
			}
			if want == 0 {
				t.Fatalf("%s: fixture matches no pair", e)
			}
			if rel, ok := countMatchesEval(t, e, cat); ok && rel.Len() != want {
				t.Errorf("%s: Count %d, want %d", e, rel.Len(), want)
			}
			exactCountAgrees(t, e, cat)
		}
	})

	// A relation missing from the catalog: both routes fail with Eval's
	// error text.
	t.Run("missing relation", func(t *testing.T) {
		cat, bases := randomCatalog(rand.New(rand.NewSource(1)))
		missing := Base("missing", bases[0].Schema())
		for _, e := range []*Expr{
			missing,
			Must(Join(bases[0], missing, []On{{Left: "a", Right: "a"}}, nil, "m")),
			Must(Union(bases[0], missing)),
			Must(Project(missing, "a")),
		} {
			if rel, ok := countMatchesEval(t, e, cat); ok && rel != nil {
				t.Errorf("%s: evaluated without the missing relation", e)
			}
		}
	})
}

// abSchema is the (a int, b int) layout of the hand-built relations above.
func abSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindInt},
	)
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
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
