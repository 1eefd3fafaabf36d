package algebra

import (
	"runtime"
	"sort"
	"testing"

	"relest/internal/parallel"
	"relest/internal/relation"
)

// fixtures builds a small catalog:
//
//	R(a, b): (1,10) (2,20) (3,30) (4,40)
//	S(a, b): (3,30) (4,99) (5,50)        — same layout as R
//	T(x)   : 10, 20, 20? no — set semantics: 10, 20, 50
func fixtures() (MapCatalog, *Expr, *Expr, *Expr) {
	rs := relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt}, relation.Column{Name: "b", Kind: relation.KindInt})
	r := relation.New("R", rs)
	for _, p := range [][2]int64{{1, 10}, {2, 20}, {3, 30}, {4, 40}} {
		r.MustAppend(relation.Tuple{relation.Int(p[0]), relation.Int(p[1])})
	}
	ss := relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt}, relation.Column{Name: "b", Kind: relation.KindInt})
	s := relation.New("S", ss)
	for _, p := range [][2]int64{{3, 30}, {4, 99}, {5, 50}} {
		s.MustAppend(relation.Tuple{relation.Int(p[0]), relation.Int(p[1])})
	}
	ts := relation.MustSchema(relation.Column{Name: "x", Kind: relation.KindInt})
	tt := relation.New("T", ts)
	for _, v := range []int64{10, 20, 50} {
		tt.MustAppend(relation.Tuple{relation.Int(v)})
	}
	cat := MapCatalog{"R": r, "S": s, "T": tt}
	return cat, BaseOf(r), BaseOf(s), BaseOf(tt)
}

func mustCount(t *testing.T, e *Expr, cat Catalog) int64 {
	t.Helper()
	c, err := Count(e, cat)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEvalBase(t *testing.T) {
	cat, r, _, _ := fixtures()
	if got := mustCount(t, r, cat); got != 4 {
		t.Errorf("count(R) = %d", got)
	}
	// Missing relation.
	if _, err := Eval(Base("nope", r.Schema()), cat); err == nil {
		t.Error("missing relation should fail")
	}
	// Layout mismatch.
	bad := Base("T", r.Schema())
	if _, err := Eval(bad, cat); err == nil {
		t.Error("layout mismatch should fail")
	}
}

func TestEvalSelect(t *testing.T) {
	cat, r, _, _ := fixtures()
	sel := Must(Select(r, Cmp{Col: "a", Op: GE, Val: relation.Int(3)}))
	if got := mustCount(t, sel, cat); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
	sel2 := Must(Select(r, And{
		Cmp{Col: "a", Op: GT, Val: relation.Int(1)},
		Cmp{Col: "b", Op: LT, Val: relation.Int(40)},
	}))
	if got := mustCount(t, sel2, cat); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
	// Unknown column.
	if _, err := Select(r, Cmp{Col: "zz", Op: EQ, Val: relation.Int(0)}); err == nil {
		t.Error("unknown predicate column should fail")
	}
}

func TestEvalProject(t *testing.T) {
	cat, _, _, _ := fixtures()
	// Project R's b modulo duplicates: make a relation with dup b values.
	rs := relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt}, relation.Column{Name: "b", Kind: relation.KindInt})
	r := relation.New("R2", rs)
	for _, p := range [][2]int64{{1, 10}, {2, 10}, {3, 30}} {
		r.MustAppend(relation.Tuple{relation.Int(p[0]), relation.Int(p[1])})
	}
	cat["R2"] = r
	pr := Must(Project(BaseOf(r), "b"))
	if got := mustCount(t, pr, cat); got != 2 {
		t.Errorf("count(π_b R2) = %d, want 2", got)
	}
	if pr.Schema().Len() != 1 || pr.Schema().Column(0).Name != "b" {
		t.Errorf("projected schema %s", pr.Schema())
	}
	if _, err := Project(BaseOf(r), "zz"); err == nil {
		t.Error("unknown projection column should fail")
	}
}

func TestEvalProduct(t *testing.T) {
	cat, r, _, tt := fixtures()
	pr := Must(Product(r, tt, "T"))
	if got := mustCount(t, pr, cat); got != 12 {
		t.Errorf("count(R×T) = %d, want 12", got)
	}
	if pr.Schema().Len() != 3 {
		t.Errorf("schema %s", pr.Schema())
	}
	// Self product disambiguates columns.
	pp := Must(Product(r, r, "R2"))
	if pp.Schema().ColumnIndex("R2.a") < 0 {
		t.Errorf("self product schema %s", pp.Schema())
	}
	if got := mustCount(t, pp, cat); got != 16 {
		t.Errorf("count(R×R) = %d, want 16", got)
	}
}

func TestEvalJoin(t *testing.T) {
	cat, r, s, _ := fixtures()
	j := Must(Join(r, s, []On{{Left: "a", Right: "a"}}, nil, "S"))
	if got := mustCount(t, j, cat); got != 2 { // a=3 and a=4
		t.Errorf("count(R⋈S on a) = %d, want 2", got)
	}
	// Join on two columns: only (3,30) matches both a and b.
	j2 := Must(Join(r, s, []On{{Left: "a", Right: "a"}, {Left: "b", Right: "b"}}, nil, "S"))
	if got := mustCount(t, j2, cat); got != 1 {
		t.Errorf("count(R⋈S on a,b) = %d, want 1", got)
	}
	// Theta-join: residual predicate on the concatenated schema.
	j3 := Must(Join(r, s, []On{{Left: "a", Right: "a"}}, ColCmp{A: "b", Op: EQ, B: "S.b"}, "S"))
	if got := mustCount(t, j3, cat); got != 1 {
		t.Errorf("theta join count = %d, want 1", got)
	}
	// No conditions.
	if _, err := Join(r, s, nil, nil, "S"); err == nil {
		t.Error("join without conditions should fail")
	}
	// Unknown join column.
	if _, err := Join(r, s, []On{{Left: "zz", Right: "a"}}, nil, "S"); err == nil {
		t.Error("unknown left join column should fail")
	}
	if _, err := Join(r, s, []On{{Left: "a", Right: "zz"}}, nil, "S"); err == nil {
		t.Error("unknown right join column should fail")
	}
}

func TestEvalSetOps(t *testing.T) {
	cat, r, s, tt := fixtures()
	u := Must(Union(r, s))
	if got := mustCount(t, u, cat); got != 6 { // R has 4, S has 3, overlap {(3,30)}
		t.Errorf("count(R∪S) = %d, want 6", got)
	}
	i := Must(Intersect(r, s))
	if got := mustCount(t, i, cat); got != 1 {
		t.Errorf("count(R∩S) = %d, want 1", got)
	}
	d := Must(Diff(r, s))
	if got := mustCount(t, d, cat); got != 3 {
		t.Errorf("count(R−S) = %d, want 3", got)
	}
	d2 := Must(Diff(s, r))
	if got := mustCount(t, d2, cat); got != 2 {
		t.Errorf("count(S−R) = %d, want 2", got)
	}
	// Layout mismatch.
	if _, err := Union(r, tt); err == nil {
		t.Error("union layout mismatch should fail")
	}
}

func TestEvalComposite(t *testing.T) {
	cat, r, s, _ := fixtures()
	// (σ_{a≥2} R) − S  = {(2,20),(4,40)}; (3,30) removed by S.
	sel := Must(Select(r, Cmp{Col: "a", Op: GE, Val: relation.Int(2)}))
	d := Must(Diff(sel, s))
	if got := mustCount(t, d, cat); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
	// Union with a join result.
	j := Must(Join(r, s, []On{{Left: "a", Right: "a"}}, nil, "S"))
	if j.Schema().Len() != 4 {
		t.Fatalf("join schema %s", j.Schema())
	}
	res, err := Eval(j, cat)
	if err != nil {
		t.Fatal(err)
	}
	res.Sort()
	if res.Value(0, 0).Int64() != 3 || res.Value(1, 0).Int64() != 4 {
		t.Errorf("join rows wrong: %v %v", res.Materialize(0), res.Materialize(1))
	}
}

// evalOnRow binds p with oneRow(s) and evaluates it on the single row of a
// one-row relation holding tup.
func evalOnRow(t *testing.T, p Predicate, s *relation.Schema, tup relation.Tuple) bool {
	t.Helper()
	eval, err := p.bind(s, oneRow(s))
	if err != nil {
		t.Fatalf("bind %v: %v", p, err)
	}
	r := relation.New("one", s)
	r.MustAppend(tup)
	return eval([]relation.Row{r.Row(0)})
}

func TestPredicates(t *testing.T) {
	s := relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt}, relation.Column{Name: "b", Kind: relation.KindInt})
	tup := relation.Tuple{relation.Int(5), relation.Int(7)}
	cases := []struct {
		p    Predicate
		want bool
	}{
		{Cmp{Col: "a", Op: EQ, Val: relation.Int(5)}, true},
		{Cmp{Col: "a", Op: NE, Val: relation.Int(5)}, false},
		{Cmp{Col: "a", Op: LT, Val: relation.Int(6)}, true},
		{Cmp{Col: "a", Op: LE, Val: relation.Int(5)}, true},
		{Cmp{Col: "a", Op: GT, Val: relation.Int(5)}, false},
		{Cmp{Col: "a", Op: GE, Val: relation.Int(5)}, true},
		{ColCmp{A: "a", Op: LT, B: "b"}, true},
		{ColCmp{A: "a", Op: EQ, B: "b"}, false},
		{And{}, true},
		{Or{}, false},
		{And{Cmp{Col: "a", Op: EQ, Val: relation.Int(5)}, Cmp{Col: "b", Op: EQ, Val: relation.Int(7)}}, true},
		{Or{Cmp{Col: "a", Op: EQ, Val: relation.Int(0)}, Cmp{Col: "b", Op: EQ, Val: relation.Int(7)}}, true},
		{Not{Cmp{Col: "a", Op: EQ, Val: relation.Int(5)}}, false},
		{FuncOnCols{Cols: []string{"a", "b"}, Fn: func(v []relation.Value) bool {
			return v[0].Int64()+v[1].Int64() == 12
		}}, true},
	}
	for i, c := range cases {
		if got := evalOnRow(t, c.p, s, tup); got != c.want {
			t.Errorf("case %d (%v): got %v", i, c.p, got)
		}
	}
}

func TestPredicateNullSemantics(t *testing.T) {
	s := relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt})
	tup := relation.Tuple{relation.Null()}
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		if evalOnRow(t, Cmp{Col: "a", Op: op, Val: relation.Int(1)}, s, tup) {
			t.Errorf("null %s 1 should be false", op)
		}
	}
}

func TestPredicateColumns(t *testing.T) {
	p := And{
		Cmp{Col: "a", Op: EQ, Val: relation.Int(1)},
		Or{Cmp{Col: "b", Op: EQ, Val: relation.Int(2)}, Cmp{Col: "a", Op: GT, Val: relation.Int(0)}},
	}
	got := p.Columns()
	sort.Strings(got)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Columns() = %v", got)
	}
}

func TestFuncOnColsNilFn(t *testing.T) {
	s := relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt})
	if _, err := (FuncOnCols{Cols: []string{"a"}}).bind(s, oneRow(s)); err == nil {
		t.Error("nil Fn should fail to bind")
	}
}

func TestExprIntrospection(t *testing.T) {
	cat, r, s, _ := fixtures()
	_ = cat
	j := Must(Join(r, s, []On{{Left: "a", Right: "a"}}, nil, "S"))
	u := Must(Union(r, s))
	names := j.BaseNames()
	if len(names) != 2 || names[0] != "R" || names[1] != "S" {
		t.Errorf("BaseNames = %v", names)
	}
	if j.HasSetOp() || !u.HasSetOp() {
		t.Error("HasSetOp wrong")
	}
	pr := Must(Project(r, "a"))
	if !pr.HasProjection() || j.HasProjection() {
		t.Error("HasProjection wrong")
	}
	if j.Op() != OpJoin || j.Left() != r || j.Right() != s {
		t.Error("accessors wrong")
	}
	if r.BaseName() != "R" || j.BaseName() != "" {
		t.Error("BaseName wrong")
	}
	for _, e := range []*Expr{r, j, u, pr,
		Must(Select(r, Cmp{Col: "a", Op: EQ, Val: relation.Int(1)})),
		Must(Product(r, s, "S")),
		Must(Intersect(r, s)),
		Must(Diff(r, s))} {
		if e.String() == "" {
			t.Error("empty String()")
		}
	}
}

// TestCountAllocIndependentOfOutput pins what Count's σ/⋈/× route does not
// do: materialize. At fixed |R| = 20 000 and |S| = 2 000, growing |R ⋈ S|
// from 200 to 400 000 rows must leave Count's allocated bytes flat — the
// term plan holds candidate lists and one hash index over R, nothing per
// output row. (Eval's allocations grow with the output.)
func TestCountAllocIndependentOfOutput(t *testing.T) {
	r := relation.New("R", abSchema())
	for i := 0; i < 20_000; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i % 100)), relation.Int(int64(i))})
	}
	// Every R key carries 200 rows; the first `matching` S rows hit one
	// key each, the rest carry keys no R row has.
	join := func(matching int) (*Expr, MapCatalog) {
		s := relation.New("S", abSchema())
		for i := 0; i < 2_000; i++ {
			a := int64(i % 100)
			if i >= matching {
				a = int64(1_000 + i)
			}
			s.MustAppend(relation.Tuple{relation.Int(a), relation.Int(int64(i))})
		}
		return Must(Join(BaseOf(r), BaseOf(s), []On{{Left: "a", Right: "a"}}, nil, "s")), MapCatalog{"R": r, "S": s}
	}
	allocBytes := func(e *Expr, cat Catalog, want int64) uint64 {
		parallel.SetWorkers(1)
		defer parallel.SetWorkers(0)
		const runs = 5
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if got := mustCount(t, e, cat); got != want {
				t.Fatalf("%s: Count %d, want %d", e, got, want)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallE, smallCat := join(1)
	largeE, largeCat := join(2_000)
	small := allocBytes(smallE, smallCat, 200)
	large := allocBytes(largeE, largeCat, 400_000)
	t.Logf("Count allocated %d B for 200 output rows, %d B for 400 000", small, large)
	if large > small+small/10 {
		t.Errorf("Count allocated %d B for a 400 000-row join and %d B for a 200-row one: allocation grows with the output", large, small)
	}
}

// TestCountSelectAllocsPerPlan: Count(σ(R)) allocates per plan, not per
// row — the selection reads every candidate row in place.
func TestCountSelectAllocsPerPlan(t *testing.T) {
	r := relation.New("R", abSchema())
	for i := 0; i < 100_000; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i % 100)), relation.Int(int64(i))})
	}
	cat := MapCatalog{"R": r}
	e := Must(Select(BaseOf(r), Cmp{Col: "b", Op: LT, Val: relation.Int(50_000)}))
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	allocs := testing.AllocsPerRun(3, func() {
		if got := mustCount(t, e, cat); got != 50_000 {
			t.Fatalf("Count %d, want 50000", got)
		}
	})
	t.Logf("Count(σ(R)) at |R| = 100 000: %.0f allocs", allocs)
	if allocs > 64 {
		t.Errorf("Count(σ(R)) made %.0f allocations at |R| = 100 000; want ≤ 64 (per plan, not per row)", allocs)
	}
}
