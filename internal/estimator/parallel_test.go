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

// jackknifeBothWays computes the jackknife variance through the single-pass
// derivation and through naive delete-one re-estimation, asserting
// eligibility for the former.
func jackknifeBothWays(t *testing.T, poly algebra.Polynomial, syn *Synopsis) (single, naive float64) {
	t.Helper()
	eng := newEngine(nil, Options{Workers: 1})
	ok, err := singlePassEligible(poly, syn, eng, countContrib)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("expected the polynomial to be single-pass eligible")
	}
	single, err = jackknifeSinglePass(poly, syn, eng, countContrib)
	if err != nil {
		t.Fatal(err)
	}
	naive, err = jackknifeNaive(poly, syn, eng, countContrib)
	if err != nil {
		t.Fatal(err)
	}
	return single, naive
}

// TestSinglePassJackknifeMatchesNaive verifies the single-pass derivation
// against brute-force delete-one replication on joins, multi-term set
// operations, a repeated-relation (self-intersect) polynomial, and a
// page-design sample.
func TestSinglePassJackknifeMatchesNaive(t *testing.T) {
	t.Run("join", func(t *testing.T) {
		expr, syn := drawnJoinSynopsis(t, 200, 150, 25, 3)
		poly, err := algebra.Normalize(expr)
		if err != nil {
			t.Fatal(err)
		}
		single, naive := jackknifeBothWays(t, poly, syn)
		if !almostEqual(single, naive, 1e-9) {
			t.Errorf("join: single-pass %v != naive %v", single, naive)
		}
	})
	t.Run("union", func(t *testing.T) {
		r := intRelation("R", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}, {5}, {6}, {7}})
		s := intRelation("S", []string{"a"}, [][]int64{{5}, {6}, {7}, {8}, {9}})
		syn := synopsisFor(t, []*relation.Relation{r, s}, [][]int{{0, 1, 3, 4, 6}, {0, 2, 3}})
		u := algebra.Must(algebra.Union(algebra.BaseOf(r), algebra.BaseOf(s)))
		poly, err := algebra.Normalize(u)
		if err != nil {
			t.Fatal(err)
		}
		single, naive := jackknifeBothWays(t, poly, syn)
		if !almostEqual(single, naive, 1e-9) {
			t.Errorf("union: single-pass %v != naive %v", single, naive)
		}
	})
	t.Run("self-intersect", func(t *testing.T) {
		// Repeated relation: R appears twice in one term; the reweighting
		// uses falling-factorial ratios at n−1.
		r := intRelation("R", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}})
		syn := synopsisFor(t, []*relation.Relation{r}, [][]int{{0, 2, 3, 5, 7}})
		e := algebra.Must(algebra.Intersect(algebra.BaseOf(r), algebra.BaseOf(r)))
		poly, err := algebra.Normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		single, naive := jackknifeBothWays(t, poly, syn)
		if !almostEqual(single, naive, 1e-9) {
			t.Errorf("self-intersect: single-pass %v != naive %v", single, naive)
		}
	})
	t.Run("page-design", func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		rows := make([][]int64, 120)
		for i := range rows {
			rows[i] = []int64{int64(rng.Intn(12)), int64(i)}
		}
		r := intRelation("R", []string{"a", "b"}, rows)
		sRows := make([][]int64, 90)
		for i := range sRows {
			sRows[i] = []int64{int64(rng.Intn(12)), int64(i)}
		}
		s := intRelation("S", []string{"a", "c"}, sRows)
		syn := NewSynopsis()
		if err := syn.AddDrawnPages(r, 6, 5, rng); err != nil {
			t.Fatal(err)
		}
		if err := syn.AddDrawn(s, 20, rng); err != nil {
			t.Fatal(err)
		}
		e := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(s), []algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
		poly, err := algebra.Normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		single, naive := jackknifeBothWays(t, poly, syn)
		if !almostEqual(single, naive, 1e-9) {
			t.Errorf("page-design: single-pass %v != naive %v", single, naive)
		}
	})
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
	eng := newEngine(nil, Options{Workers: 1})
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

// TestSinglePassFoldedTerms checks the two folded-tail regimes: fully
// folded terms (pure products) take the closed form and match naive
// replication exactly, while partially folded terms (a constrained prefix
// with an unconstrained cross-product tail) are routed to the naive path.
func TestSinglePassFoldedTerms(t *testing.T) {
	r := intRelation("R", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}})
	s := intRelation("S", []string{"b"}, [][]int64{{1}, {2}, {3}})
	syn := synopsisFor(t, []*relation.Relation{r, s}, [][]int{{0, 1, 2}, {0, 2}})
	product := algebra.Must(algebra.Product(algebra.BaseOf(r), algebra.BaseOf(s), "S"))
	poly, err := algebra.Normalize(product)
	if err != nil {
		t.Fatal(err)
	}
	single, naive := jackknifeBothWays(t, poly, syn)
	if !almostEqual(single, naive, 1e-9) {
		t.Errorf("product: closed form %v != naive %v", single, naive)
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
	single, naive = jackknifeBothWays(t, spoly, syn)
	if !almostEqual(single, naive, 1e-9) {
		t.Errorf("selected product: closed form %v != naive %v", single, naive)
	}

	// (R ⋈ R2) × S with a large S: the greedy order binds the joined pair
	// first and S (the biggest candidate list) folds behind it — a partial
	// fold with no closed form.
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
	eng := newEngine(nil, Options{Workers: 1})
	ok, err := singlePassEligible(ppoly, syn2, eng, countContrib)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("partially folded term should not be single-pass eligible")
	}
	// The public path must still produce a jackknife variance via fallback.
	est, err := countOf(partial, syn2, Options{Variance: VarJackknife})
	if err != nil {
		t.Fatal(err)
	}
	if est.VarianceMethod != VarJackknife {
		t.Errorf("method %v", est.VarianceMethod)
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
	eng := newEngine(nil, Options{Workers: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jackknifeSinglePass(poly, syn, eng, countContrib); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJackknifeNaive(b *testing.B) {
	poly, syn := benchJackknifeSetup(b)
	eng := newEngine(nil, Options{Workers: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := jackknifeNaive(poly, syn, eng, countContrib)
		if err != nil {
			b.Fatal(err)
		}
	}
}
