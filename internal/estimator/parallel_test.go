package estimator

import (
	"math/rand"
	"sync"
	"testing"

	"relest/internal/algebra"
	"relest/internal/relation"
)

// drawnJoinSynopsis builds R(a,b) ⋈ S(a,c) bases of the given sizes with a
// shared key domain, draws tuple samples, and returns the join expression
// with its synopsis.
func drawnJoinSynopsis(t testing.TB, nR, nS, sample int, seed int64) (*algebra.Expr, *Synopsis) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := nR / 10
	if keys < 2 {
		keys = 2
	}
	rRows := make([][]int64, nR)
	for i := range rRows {
		rRows[i] = []int64{int64(rng.Intn(keys)), int64(rng.Intn(1000))}
	}
	sRows := make([][]int64, nS)
	for i := range sRows {
		sRows[i] = []int64{int64(rng.Intn(keys)), int64(rng.Intn(1000))}
	}
	r := intRelation("R", []string{"a", "b"}, rRows)
	s := intRelation("S", []string{"a", "c"}, sRows)
	syn := NewSynopsis()
	if err := syn.AddDrawn(r, sample, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(s, sample, rng); err != nil {
		t.Fatal(err)
	}
	expr := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(s), []algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
	return expr, syn
}

// TestWorkersDeterminism checks the headline contract of the parallel
// engine: for a fixed Seed, every Options.Workers setting produces
// bit-identical estimates — point value, variance and interval.
func TestWorkersDeterminism(t *testing.T) {
	expr, syn := drawnJoinSynopsis(t, 400, 300, 40, 11)
	for _, variance := range []VarianceMethod{VarSplitSample, VarJackknife, VarAnalytic} {
		var base Estimate
		for i, workers := range []int{1, 2, 3, 8} {
			est, err := countOf(expr, syn, Options{Variance: variance, Seed: 42, Workers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", variance, workers, err)
			}
			if i == 0 {
				base = est
				continue
			}
			if est.Value != base.Value || est.Variance != base.Variance || est.Lo != base.Lo || est.Hi != base.Hi {
				t.Errorf("%v: workers=%d diverges: %+v vs %+v", variance, workers, est, base)
			}
		}
	}
}

// TestWorkersDeterminismSum is the same contract for the SUM estimator and
// for a multi-term polynomial (union).
func TestWorkersDeterminismSum(t *testing.T) {
	expr, syn := drawnJoinSynopsis(t, 300, 200, 30, 5)
	var base Estimate
	for i, workers := range []int{1, 4} {
		est, err := sumOf(expr, "b", syn, Options{Variance: VarJackknife, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = est
		} else if est.Value != base.Value || est.Variance != base.Variance {
			t.Errorf("SUM workers=%d diverges: %+v vs %+v", workers, est, base)
		}
	}
	r := intRelation("R", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}, {5}, {6}})
	s := intRelation("S", []string{"a"}, [][]int64{{4}, {5}, {6}, {7}, {8}})
	syn2 := synopsisFor(t, []*relation.Relation{r, s}, [][]int{{0, 2, 3, 5}, {1, 2, 4}})
	u := algebra.Must(algebra.Union(algebra.BaseOf(r), algebra.BaseOf(s)))
	var ubase Estimate
	for i, workers := range []int{1, 8} {
		est, err := countOf(u, syn2, Options{Variance: VarJackknife, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ubase = est
		} else if est.Value != ubase.Value || est.Variance != ubase.Variance {
			t.Errorf("union workers=%d diverges: %+v vs %+v", workers, est, ubase)
		}
	}
}

// TestWorkersDeterminismSumPartitioned holds the contract on a SUM over a
// join large enough to tally in parts (more than 4 096 first-step
// candidates), weighted by a Float column on either occurrence: the
// weighted tally's float sums, and so the point estimate and the closed
// form, have the same bits at workers 1, 2 and 4.
func TestWorkersDeterminismSumPartitioned(t *testing.T) {
	rng := testRand(64)
	rel := func(name string, n int) *relation.Relation {
		r := relation.New(name, relation.MustSchema(
			relation.Column{Name: "a", Kind: relation.KindInt},
			relation.Column{Name: "v", Kind: relation.KindFloat},
		))
		for i := 0; i < n; i++ {
			r.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(3000))), relation.Float(rng.Float64()*100 - 20)})
		}
		return r
	}
	r, s := rel("R", 12_000), rel("S", 11_000)
	syn := NewSynopsis()
	for _, x := range []*relation.Relation{r, s} {
		if err := syn.AddDrawn(x, 6_000, rng); err != nil {
			t.Fatal(err)
		}
	}
	e := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(s), []algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
	poly, err := algebra.Normalize(e)
	if err != nil {
		t.Fatal(err)
	}
	_, pt, err := newEngine(nil, syn, Options{}).plan(&poly.Terms[0], syn)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Parts() == 1 || !pt.Pairs() {
		t.Fatalf("fixture tallies in %d part(s), pairs %v; want a partitioned pair tally", pt.Parts(), pt.Pairs())
	}
	for _, col := range []string{"v", "S.v"} {
		var base Estimate
		for i, workers := range []int{1, 2, 4} {
			est, err := sumOf(e, col, syn, Options{Variance: VarAnalytic, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				base = est
				continue
			}
			if !sameBits(est.Value, base.Value) || !sameBits(est.Variance, base.Variance) || !sameBits(est.Lo, base.Lo) || !sameBits(est.Hi, base.Hi) {
				t.Errorf("SUM(%s) workers=%d diverges: %+v vs %+v", col, workers, est, base)
			}
		}
	}
}

// jackknifeBothWays computes the jackknife variance through the single
// pass and through naive delete-one re-estimation (jackknifeNaive), both at
// the given worker count.
func jackknifeBothWays(t *testing.T, poly algebra.Polynomial, syn *Synopsis, workers int, contrib termContrib) (single, naive float64) {
	t.Helper()
	eng := newEngine(nil, syn, Options{Workers: workers})
	single, err := jackknifeSinglePass(poly, syn, eng, contrib)
	if err != nil {
		t.Fatal(err)
	}
	naive, err = jackknifeNaive(poly, syn, eng, contrib)
	if err != nil {
		t.Fatal(err)
	}
	return single, naive
}

// foldFixture samples R(a, b) under the named design and R2(a, c),
// T(c, d) and S(e, f) tuple at a time. S's sample is the largest, so the
// greedy plan order binds it last and a term that crosses it with
// anything constrained folds it into a tail. R has 203 rows, so under the
// page design its 5-row pages end in a short one, which the sample
// includes.
func foldFixture(t *testing.T, design string) *Synopsis {
	t.Helper()
	rng := testRand(77)
	rel := func(name string, cols []string, n, domA, domB int) *relation.Relation {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{int64(rng.Intn(domA)), int64(rng.Intn(domB))}
		}
		return intRelation(name, cols, rows)
	}
	r := rel("R", []string{"a", "b"}, 203, 8, 100)
	var syn *Synopsis
	if design == "page" {
		syn = pageSynopsisFor(t, r, 5, []int{3, 17, 40, 8, 25, 31, 12})
	} else {
		syn = NewSynopsis()
		if err := syn.AddDrawn(r, 30, rng); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range []struct {
		r *relation.Relation
		n int
	}{
		{rel("R2", []string{"a", "c"}, 120, 8, 12), 20},
		{rel("T", []string{"c", "d"}, 100, 12, 50), 25},
		{rel("S", []string{"e", "f"}, 150, 40, 40), 45},
	} {
		if err := syn.AddDrawn(o.r, o.n, rng); err != nil {
			t.Fatal(err)
		}
	}
	return syn
}

// TestSinglePassJackknifeMatchesNaive verifies the single pass against
// brute-force delete-one replication (1e-9 relative) at workers 1 and 4,
// and that the single pass gives the same bits at both worker counts. The
// shapes cover joins, multi-term set operations, repeated relations and
// the page design, plus every folded shape: a fully folded SUM, a partial
// fold behind a factorizable prefix as COUNT and as SUM with the
// contribution on a prefix or on the folded occurrence, a fold behind a
// chain that does not factorize, and a fold behind a self-join.
func TestSinglePassJackknifeMatchesNaive(t *testing.T) {
	type jackCase struct {
		name string
		syn  *Synopsis
		e    *algebra.Expr
		col  string // SUM column; "" for COUNT
	}
	var cases []jackCase

	expr, syn := drawnJoinSynopsis(t, 200, 150, 25, 3)
	cases = append(cases, jackCase{name: "join", syn: syn, e: expr})

	r := intRelation("R", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}, {5}, {6}, {7}})
	s := intRelation("S", []string{"a"}, [][]int64{{5}, {6}, {7}, {8}, {9}})
	cases = append(cases, jackCase{name: "union",
		syn: synopsisFor(t, []*relation.Relation{r, s}, [][]int{{0, 1, 3, 4, 6}, {0, 2, 3}}),
		e:   algebra.Must(algebra.Union(algebra.BaseOf(r), algebra.BaseOf(s)))})

	// Repeated relation: R appears twice in one term; the reweighting uses
	// falling-factorial ratios at n−1.
	r8 := intRelation("R", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}})
	cases = append(cases, jackCase{name: "self-intersect",
		syn: synopsisFor(t, []*relation.Relation{r8}, [][]int{{0, 2, 3, 5, 7}}),
		e:   algebra.Must(algebra.Intersect(algebra.BaseOf(r8), algebra.BaseOf(r8)))})

	rng := rand.New(rand.NewSource(17))
	rows := make([][]int64, 120)
	for i := range rows {
		rows[i] = []int64{int64(rng.Intn(12)), int64(i)}
	}
	pr := intRelation("R", []string{"a", "b"}, rows)
	sRows := make([][]int64, 90)
	for i := range sRows {
		sRows[i] = []int64{int64(rng.Intn(12)), int64(i)}
	}
	ps := intRelation("S", []string{"a", "c"}, sRows)
	psyn := NewSynopsis()
	if err := psyn.AddDrawnPages(pr, 6, 5, rng); err != nil {
		t.Fatal(err)
	}
	if err := psyn.AddDrawn(ps, 20, rng); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, jackCase{name: "page-design", syn: psyn,
		e: algebra.Must(algebra.Join(algebra.BaseOf(pr), algebra.BaseOf(ps), []algebra.On{{Left: "a", Right: "a"}}, nil, "S"))})

	base := func(name string, cols ...string) *algebra.Expr { return algebra.Base(name, intSchema(cols...)) }
	fr, fr2, ft, fs := base("R", "a", "b"), base("R2", "a", "c"), base("T", "c", "d"), base("S", "e", "f")
	onA := []algebra.On{{Left: "a", Right: "a"}}
	pair := algebra.Must(algebra.Join(fr, fr2, onA, nil, "R2"))
	chain := algebra.Must(algebra.Join(pair, ft, []algebra.On{{Left: "c", Right: "c"}}, nil, "T"))
	self := algebra.Must(algebra.Join(fr, fr, onA, nil, "X"))
	cross := func(e *algebra.Expr) *algebra.Expr { return algebra.Must(algebra.Product(e, fs, "S")) }
	for _, design := range []string{"tuple", "page"} {
		fsyn := foldFixture(t, design)
		add := func(name string, e *algebra.Expr, col string) {
			cases = append(cases, jackCase{name: design + "/" + name, syn: fsyn, e: e, col: col})
		}
		add("select-sum", algebra.Must(algebra.Select(fr, algebra.Cmp{Col: "b", Op: algebra.LT, Val: relation.Int(60)})), "b")
		add("pair-x-S-count", cross(pair), "")
		add("pair-x-S-sum-prefix", cross(pair), "b")
		add("pair-x-S-sum-folded", cross(pair), "f")
		add("chain-x-S-count", cross(chain), "")
		if design == "tuple" { // repeated relations need the tuple design
			add("selfjoin-x-S-count", cross(self), "")
		}
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			poly, err := algebra.Normalize(c.e)
			if err != nil {
				t.Fatal(err)
			}
			contrib := countContrib
			if c.col != "" {
				contrib = sumContrib(c.e.Schema().ColumnIndex(c.col))
			}
			var first float64
			for i, workers := range []int{1, 4} {
				single, naive := jackknifeBothWays(t, poly, c.syn, workers, contrib)
				if !almostEqual(single, naive, 1e-9) {
					t.Errorf("workers=%d: single pass %v != naive %v", workers, single, naive)
				}
				if i == 0 {
					first = single
				} else if !sameBits(single, first) {
					t.Errorf("workers=%d: single pass %v, workers=1 %v", workers, single, first)
				}
			}
		})
	}
}

// TestSinglePassJackknifeSum verifies the SUM variant: the per-assignment
// contribution is the output column's value.
func TestSinglePassJackknifeSum(t *testing.T) {
	expr, syn := drawnJoinSynopsis(t, 200, 150, 25, 8)
	poly, err := algebra.Normalize(expr)
	if err != nil {
		t.Fatal(err)
	}
	pos := expr.Schema().ColumnIndex("b")
	if pos < 0 {
		t.Fatal("no column b")
	}
	eng := newEngine(nil, syn, Options{Workers: 1})
	single, err := jackknifeSinglePass(poly, syn, eng, sumContrib(pos))
	if err != nil {
		t.Fatal(err)
	}
	naive, err := jackknifeNaive(poly, syn, eng, sumContrib(pos))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(single, naive, 1e-9) {
		t.Errorf("SUM: single-pass %v != naive %v", single, naive)
	}
}

// TestSinglePassFoldedTerms checks the folded-tail regimes against naive
// replication: fully folded terms (pure products, whose moment pass is a
// closed form over candidate counts) and a partially folded term (a
// constrained prefix with an unconstrained cross-product tail, whose moment
// pass enumerates the prefix only) — and that the public path reports the
// jackknife for the latter.
func TestSinglePassFoldedTerms(t *testing.T) {
	r := intRelation("R", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}})
	s := intRelation("S", []string{"b"}, [][]int64{{1}, {2}, {3}})
	syn := synopsisFor(t, []*relation.Relation{r, s}, [][]int{{0, 1, 2}, {0, 2}})
	product := algebra.Must(algebra.Product(algebra.BaseOf(r), algebra.BaseOf(s), "S"))
	poly, err := algebra.Normalize(product)
	if err != nil {
		t.Fatal(err)
	}
	single, naive := jackknifeBothWays(t, poly, syn, 1, countContrib)
	if !almostEqual(single, naive, 1e-9) {
		t.Errorf("product: single pass %v != naive %v", single, naive)
	}

	// σ(R) × S also folds fully — local predicates are pre-applied to the
	// candidate lists — so the closed form must count candidates, not rows.
	selProduct := algebra.Must(algebra.Product(
		algebra.Must(algebra.Select(algebra.BaseOf(r), algebra.Cmp{Col: "a", Op: algebra.GT, Val: relation.Int(1)})),
		algebra.BaseOf(s), "S"))
	spoly, err := algebra.Normalize(selProduct)
	if err != nil {
		t.Fatal(err)
	}
	single, naive = jackknifeBothWays(t, spoly, syn, 1, countContrib)
	if !almostEqual(single, naive, 1e-9) {
		t.Errorf("selected product: single pass %v != naive %v", single, naive)
	}

	// (R ⋈ R2) × S with a large S: the greedy order binds the joined pair
	// first and S (the biggest candidate list) folds behind it.
	r2 := intRelation("R2", []string{"a"}, [][]int64{{2}, {3}, {4}, {5}})
	bigS := intRelation("S", []string{"b"}, [][]int64{{1}, {2}, {3}, {4}, {5}, {6}, {7}})
	syn2 := synopsisFor(t, []*relation.Relation{r, r2, bigS}, [][]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3, 5, 6}})
	partial := algebra.Must(algebra.Product(
		algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(r2), []algebra.On{{Left: "a", Right: "a"}}, nil, "R2")),
		algebra.BaseOf(bigS), "S"))
	ppoly, err := algebra.Normalize(partial)
	if err != nil {
		t.Fatal(err)
	}
	single, naive = jackknifeBothWays(t, ppoly, syn2, 1, countContrib)
	if !almostEqual(single, naive, 1e-9) {
		t.Errorf("partial fold: single pass %v != naive %v", single, naive)
	}
	est, err := countOf(partial, syn2, Options{Variance: VarJackknife})
	if err != nil {
		t.Fatal(err)
	}
	if est.VarianceMethod != VarJackknife || !sameBits(est.Variance, single) {
		t.Errorf("public path: %v variance %v, single pass %v", est.VarianceMethod, est.Variance, single)
	}
}

// TestConcurrentCountSharedSynopsis exercises many concurrent estimations
// over one shared Synopsis; run under -race this pins down that synopses
// and compiled plans are read-only during evaluation.
func TestConcurrentCountSharedSynopsis(t *testing.T) {
	expr, syn := drawnJoinSynopsis(t, 300, 200, 30, 21)
	want, err := countOf(expr, syn, Options{Variance: VarJackknife, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	mismatch := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			est, err := countOf(expr, syn, Options{Variance: VarJackknife, Workers: workers})
			if err != nil {
				mismatch <- err.Error()
				return
			}
			if est.Value != want.Value || est.Variance != want.Variance {
				mismatch <- "estimate mismatch across concurrent runs"
			}
		}(1 + g%4)
	}
	wg.Wait()
	close(mismatch)
	for m := range mismatch {
		t.Error(m)
	}
}

// --- benchmarks: single-pass vs naive jackknife ----------------------

func benchJackknifeSetup(b *testing.B) (algebra.Polynomial, *Synopsis) {
	expr, syn := drawnJoinSynopsis(b, 20000, 20000, 500, 99)
	poly, err := algebra.Normalize(expr)
	if err != nil {
		b.Fatal(err)
	}
	return poly, syn
}

func BenchmarkJackknifeSinglePass(b *testing.B) {
	poly, syn := benchJackknifeSetup(b)
	eng := newEngine(nil, syn, Options{Workers: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jackknifeSinglePass(poly, syn, eng, countContrib); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJackknifeNaive(b *testing.B) {
	poly, syn := benchJackknifeSetup(b)
	eng := newEngine(nil, syn, Options{Workers: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := jackknifeNaive(poly, syn, eng, countContrib)
		if err != nil {
			b.Fatal(err)
		}
	}
}
