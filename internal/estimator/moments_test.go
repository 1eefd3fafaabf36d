package estimator

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"

	"relest/internal/algebra"
	"relest/internal/obs"
	"relest/internal/parallel"
	"relest/internal/relation"
	"relest/internal/stats"
)

// enumTwoRelationTermVariance is twoRelationTermVariance as it was before
// the moment pass: α, β and T accumulated over every enumerated
// assignment. The moment-pass form must reproduce it bit for bit.
func enumTwoRelationTermVariance(t *algebra.Term, syn *Synopsis, eng *engine) (float64, error) {
	rel1, rel2 := t.Occs[0].RelName, t.Occs[1].RelName
	n1, _ := syn.SampleSize(rel1)
	n2, _ := syn.SampleSize(rel2)
	N1, _ := syn.PopulationSize(rel1)
	N2, _ := syn.PopulationSize(rel2)
	if n1 < 2 || n2 < 2 {
		return 0, fmt.Errorf("samples too small (n1=%d, n2=%d)", n1, n2)
	}
	_, pt, err := eng.plan(t, syn)
	if err != nil {
		return 0, err
	}
	alpha := make([]float64, n1)
	beta := make([]float64, n2)
	var T float64
	pt.Enumerate(func(rows []int) bool {
		alpha[rows[0]]++
		beta[rows[1]]++
		T++
		return true
	})
	var sumA2, sumB2 float64
	for _, a := range alpha {
		sumA2 += a * a
	}
	for _, b := range beta {
		sumB2 += b * b
	}
	r1 := stats.FallingFactorialRatio(N1, n1, 1)
	r2 := stats.FallingFactorialRatio(N2, n2, 1)
	r11 := stats.FallingFactorialRatio(N1, n1, 2)
	r22 := stats.FallingFactorialRatio(N2, n2, 2)
	s11 := r1 * r2 * T
	s12 := r1 * r22 * (sumA2 - T)
	s21 := r11 * r2 * (sumB2 - T)
	s22 := r11 * r22 * (T*T - sumA2 - sumB2 + T)
	c := r1 * r2
	p11 := 1 / (r1 * r2)
	p12 := (1 / r1) * (1 / r22)
	p21 := (1 / r11) * (1 / r2)
	p22 := (1 / r11) * (1 / r22)
	ej2 := c * c * (p11*s11 + p12*s12 + p21*s21 + p22*s22)
	j2 := s11 + s12 + s21 + s22
	return ej2 - j2, nil
}

// enumJackknifeSinglePass is jackknifeSinglePass without the moment pass:
// every term enumerates, adding each assignment's weights to the
// accumulators. The moment-pass form rounds
// w′·α once per row where this adds w′ α times, so the two agree to a few
// ulps.
func enumJackknifeSinglePass(poly algebra.Polynomial, syn *Synopsis, eng *engine, contrib termContrib) (float64, error) {
	rels := poly.RelationNames()
	relIdx := make(map[string]int, len(rels))
	for i, rel := range rels {
		relIdx[rel] = i
	}
	accs := make([]*jackTermAcc, len(poly.Terms))
	metasByTerm := make([][]relTermMeta, len(poly.Terms))
	outer, inner := splitWorkers(len(poly.Terms), eng.workers)
	err := parallel.ForErrRec(len(poly.Terms), outer, obs.Nop, func(ti int) error {
		t := &poly.Terms[ti]
		metas, err := termRelMetas(t, syn)
		if err != nil {
			return err
		}
		metasByTerm[ti] = metas
		_, pt, err := eng.plan(t, syn)
		if err != nil {
			return err
		}
		value, err := contrib.bind(t, pt)
		if err != nil {
			return err
		}
		rowUnits := make([][]int, len(metas))
		for j, m := range metas {
			rowUnits[j] = m.rs.rowUnits()
		}
		parts := pt.Parts()
		partAccs := make([]*jackTermAcc, parts)
		parallel.For(parts, inner, func(part int) {
			acc := newJackTermAcc(metas)
			factor := make([]float64, len(metas))
			pt.EnumeratePart(part, parts, func(rows []int) bool {
				w := value(rows)
				if w == 0 {
					return true
				}
				for j := range metas {
					factor[j] = metas[j].factor(rows, 0)
					w *= factor[j]
				}
				acc.s += w
				for j := range metas {
					m := &metas[j]
					wp := w / factor[j] * m.factor(rows, 1)
					acc.rels[j].sPrime += wp
					for i, oi := range m.occs {
						if m.firstUse(rows, i) {
							acc.rels[j].perUnit[rowUnits[j][rows[oi]]] += wp
						}
					}
				}
				return true
			})
			partAccs[part] = acc
		})
		merged := newJackTermAcc(metas)
		for _, pa := range partAccs {
			merged.merge(pa)
		}
		accs[ti] = merged
		return nil
	})
	if err != nil {
		return 0, err
	}
	type relGlobal struct {
		rs     *relSynopsis
		base   float64
		sPrime float64
		a      []float64
	}
	globals := make([]relGlobal, len(rels))
	for i, rel := range rels {
		rs := syn.rels[rel]
		globals[i] = relGlobal{rs: rs, a: make([]float64, rs.m)}
	}
	for ti := range poly.Terms {
		coef := float64(poly.Terms[ti].Coef)
		acc := accs[ti]
		inTerm := make(map[int]bool, len(metasByTerm[ti]))
		for j, m := range metasByTerm[ti] {
			gi := relIdx[m.rel]
			inTerm[gi] = true
			globals[gi].sPrime += coef * acc.rels[j].sPrime
			for u, v := range acc.rels[j].perUnit {
				globals[gi].a[u] += coef * v
			}
		}
		for gi := range globals {
			if !inTerm[gi] {
				globals[gi].base += coef * acc.s
			}
		}
	}
	total := 0.0
	for gi := range globals {
		g := &globals[gi]
		m := g.rs.m
		var reps stats.Welford
		for u := 0; u < m; u++ {
			reps.Add(g.base + g.sPrime - g.a[u])
		}
		sumSq := float64(reps.N()-1) * reps.Variance()
		vr := float64(m-1) / float64(m) * sumSq
		vr *= 1 - float64(m)/float64(g.rs.M)
		total += vr
	}
	return total, nil
}

// momentsFixture samples R(a, b) under the named design and S(a, c), T(a, b)
// and U(a, c) tuple at a time. R has 1 010 rows, so its 25-row pages end in
// a short one, which the page sample includes.
func momentsFixture(t *testing.T, design string) *Synopsis {
	t.Helper()
	rng := testRand(4242)
	rel := func(name string, cols []string, n int) *relation.Relation {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{int64(rng.Intn(30)), int64(rng.Intn(500))}
		}
		return intRelation(name, cols, rows)
	}
	r := rel("R", []string{"a", "b"}, 1010)
	var syn *Synopsis
	if design == "page" {
		// 30 of the 41 pages, the 10-row page 40 among them.
		pages := rng.Perm(40)[:29]
		pages = slices.Insert(pages, 11, 40)
		syn = pageSynopsisFor(t, r, 25, pages)
	} else {
		syn = NewSynopsis()
		if err := syn.AddDrawn(r, 150, rng); err != nil {
			t.Fatal(err)
		}
	}
	for _, other := range []*relation.Relation{
		rel("S", []string{"a", "c"}, 700),
		rel("T", []string{"a", "b"}, 600),
		rel("U", []string{"a", "c"}, 500),
	} {
		if err := syn.AddDrawn(other, 120, rng); err != nil {
			t.Fatal(err)
		}
	}
	return syn
}

// TestMomentPassMatchesEnumeration checks the estimator's moment-pass
// consumers against their enumeration-based forms over the tuple design
// and the page design with a short last page, at workers {1, 4}: a plain
// join, σ'd joins and an empty join, and multi-term polynomials whose
// jackknife mixes terms that contain a relation with terms that do not
// (R ∪ T, with a composite-key intersection; (R ⋈ S) ∪ (T ⋈ U), whose
// four-way intersection the pass enumerates).
//
// The two-relation closed form must reproduce enumeration bit for bit.
// The jackknife rounds w′·α once per row where enumeration added w′ once
// per assignment, and Σ(θ−θ̄)² magnifies that last-place difference by the
// replicates' cancellation (tens of ulps of the variance on this fixture).
// So the two jackknife forms, and the moment pass against an exact
// rational evaluation, must agree as closely as replicate values 8 ulps
// apart allow (exactJackknife's slack).
func TestMomentPassMatchesEnumeration(t *testing.T) {
	base := func(name string, cols ...string) *algebra.Expr { return algebra.Base(name, intSchema(cols...)) }
	r, s, tt, u := base("R", "a", "b"), base("S", "a", "c"), base("T", "a", "b"), base("U", "a", "c")
	lt := func(e *algebra.Expr, col string, v int64) *algebra.Expr {
		return algebra.Must(algebra.Select(e, algebra.Cmp{Col: col, Op: algebra.LT, Val: relation.Int(v)}))
	}
	join := func(l, r *algebra.Expr, prefix string) *algebra.Expr {
		return algebra.Must(algebra.Join(l, r, []algebra.On{{Left: "a", Right: "a"}}, nil, prefix))
	}
	cases := []struct {
		name string
		e    *algebra.Expr
	}{
		{"join", join(r, s, "S")},
		{"select-join", join(lt(r, "b", 200), lt(s, "c", 300), "S")},
		{"empty-join", join(lt(r, "a", 0), s, "S")},
		{"union-rel", algebra.Must(algebra.Union(r, tt))},
		{"union-join", algebra.Must(algebra.Union(join(r, s, "S"), join(tt, u, "S")))},
	}
	for _, design := range []string{"tuple", "page"} {
		syn := momentsFixture(t, design)
		for _, c := range cases {
			poly, err := algebra.Normalize(c.e)
			if err != nil {
				t.Fatal(err)
			}
			exact, slack := exactJackknife(t, poly, syn)
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s/%s/workers=%d", design, c.name, workers)
				if poly.NumTerms() == 1 {
					sums, _, err := twoRelationSums(&poly.Terms[0], syn, newEngine(nil, syn, Options{Workers: workers}), countContrib)
					if err != nil {
						t.Fatal(err)
					}
					got, err := twoRelationTermVariance(&poly.Terms[0], syn, sums)
					if err != nil {
						t.Fatal(err)
					}
					want, err := enumTwoRelationTermVariance(&poly.Terms[0], syn, newEngine(nil, syn, Options{Workers: workers}))
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got, want) {
						t.Errorf("%s: closed form %v (%016x), enumerated %v (%016x)", label, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
				got, err := jackknifeSinglePass(poly, syn, newEngine(nil, syn, Options{Workers: workers}), countContrib)
				if err != nil {
					t.Fatal(err)
				}
				want, err := enumJackknifeSinglePass(poly, syn, newEngine(nil, syn, Options{Workers: workers}), countContrib)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-want) > slack || math.Abs(got-exact) > slack {
					t.Errorf("%s: jackknife %v, enumerated %v, exact %v: more than %v apart", label, got, want, exact, slack)
				}
			}
		}
	}
}

// TestMarginalsCounter checks the moment pass's counter: the point
// estimate of a COUNT equi-join counts its pair tally, the one factorized
// pass of the plan, whatever the variance method — the closed form reads
// the tally and the jackknife's per-row pass over the same plan is not
// counted again — and the recorder leaves every bit of the estimate
// unchanged. A θ-join, whose residual predicate the pass cannot factorize,
// counts on the enumerated path under the closed form; a three-way chain
// counts by enumeration, and its jackknife reads an enumerated moment
// pass.
func TestMarginalsCounter(t *testing.T) {
	syn := momentsFixture(t, "tuple")
	base := func(name string, cols ...string) *algebra.Expr { return algebra.Base(name, intSchema(cols...)) }
	r, s, tt := base("R", "a", "b"), base("S", "a", "c"), base("T", "a", "b")
	on := []algebra.On{{Left: "a", Right: "a"}}
	join := algebra.Must(algebra.Join(r, s, on, nil, "S"))
	theta := algebra.Must(algebra.Join(r, s, on, algebra.ColCmp{A: "b", Op: algebra.LT, B: "c"}, "S"))
	chain := algebra.Must(algebra.Join(join, tt, []algebra.On{{Left: "c", Right: "b"}}, nil, "T"))
	for _, c := range []struct {
		e                    *algebra.Expr
		variance             VarianceMethod
		factorized, enumered float64
	}{
		{join, VarAnalytic, 1, 0},
		{join, VarJackknife, 1, 0},
		{join, VarNone, 1, 0},
		{join, VarSplitSample, 1, 0},
		{theta, VarAnalytic, 0, 1},
		{chain, VarJackknife, 0, 1},
	} {
		opts := Options{Variance: c.variance, Seed: 3}
		plain, err := countOf(c.e, syn, opts)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewCollector()
		opts.Recorder = rec
		recorded, err := countOf(c.e, syn, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameEstimate(t, c.variance.String(), recorded, plain)
		m := rec.Metrics()
		if f, e := m.Counter(mMarginalsFactorized).Value(), m.Counter(mMarginalsEnumerated).Value(); f != c.factorized || e != c.enumered {
			t.Errorf("%v over %d occurrences: %v factorized and %v enumerated passes, want %v and %v",
				c.variance, len(c.e.Schema().Columns())/2, f, e, c.factorized, c.enumered)
		}
	}
}

// TestAvgProbesOnce checks that AVG over an equi-join probes the join
// once: its SUM's weighted tally records the plain counts its COUNT reads,
// so the call counts one factorized pass, and both components keep the
// bits a standalone SUM and COUNT give, under every variance method.
func TestAvgProbesOnce(t *testing.T) {
	syn := momentsFixture(t, "tuple")
	base := func(name string, cols ...string) *algebra.Expr { return algebra.Base(name, intSchema(cols...)) }
	join := algebra.Must(algebra.Join(base("R", "a", "b"), base("S", "a", "c"), []algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
	for _, col := range []string{"b", "c"} {
		for _, variance := range []VarianceMethod{VarNone, VarAuto, VarJackknife, VarSplitSample} {
			label := fmt.Sprintf("avg(%s)/%v", col, variance)
			passes := func(rec *obs.Collector) float64 { return rec.Metrics().Counter(mMarginalsFactorized).Value() }
			sumRec, avgRec := obs.NewCollector(), obs.NewCollector()
			sum, err := sumOf(join, col, syn, Options{Variance: variance, Seed: 3, Recorder: sumRec})
			if err != nil {
				t.Fatal(err)
			}
			cnt, err := countOf(join, syn, Options{Variance: variance, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			avg, err := avgOf(join, col, syn, Options{Variance: variance, Seed: 3, Recorder: avgRec})
			if err != nil {
				t.Fatal(err)
			}
			assertSameEstimate(t, label+" sum", avg.Sum, sum)
			assertSameEstimate(t, label+" count", avg.Count, cnt)
			// The SUM alone tallies the join once; the AVG adds its COUNT
			// without a second pass.
			if s, a := passes(sumRec), passes(avgRec); s != 1 || a != 1 {
				t.Errorf("%s: SUM counted %v factorized passes and AVG %v, want 1 and 1", label, s, a)
			}
		}
	}
}

// exactJackknife evaluates the single-pass jackknife of a COUNT polynomial
// whose relations occur once per term in exact rational arithmetic, from
// enumerated counts: θ_(R,u) = Σ_T coef_T·Ŝ_T(R,u) with
// Ŝ_T(R,u) = w′_{T,R}·(T_T − α_{T,R,u}) when T uses R and w_T·T_T
// otherwise, and Var = Σ_R (m−1)/m·Σ_u(θ−θ̄)²·(1−m/M), correctly rounded.
//
// slack bounds how far Var moves when every θ moves by up to 8 ulps:
// Σ(θ−θ̄)² changes by at most 2·Σ|θ−θ̄|·2δ for |δ_u| ≤ δ = 8·ε·max|θ|.
func exactJackknife(t *testing.T, poly algebra.Polynomial, syn *Synopsis) (exact, slack float64) {
	t.Helper()
	eng := newEngine(nil, syn, Options{Workers: 1})
	rat := func(a, b int) *big.Rat { return big.NewRat(int64(a), int64(b)) }
	total := new(big.Rat)
	for _, rel := range poly.RelationNames() {
		rs := syn.rels[rel]
		theta := make([]*big.Rat, rs.m)
		for u := range theta {
			theta[u] = new(big.Rat)
		}
		ru := rs.rowUnits()
		for ti := range poly.Terms {
			tm := &poly.Terms[ti]
			_, pt, err := eng.plan(tm, syn)
			if err != nil {
				t.Fatal(err)
			}
			w := big.NewRat(int64(tm.Coef), 1)
			occ := -1
			for i, o := range tm.Occs {
				ors := syn.rels[o.RelName]
				w.Mul(w, rat(ors.M, ors.m))
				if o.RelName == rel {
					occ = i
				}
			}
			count := 0
			alpha := make([]int, rs.m)
			pt.Enumerate(func(rows []int) bool {
				count++
				if occ >= 0 {
					alpha[ru[rows[occ]]]++
				}
				return true
			})
			for u := range theta {
				est := new(big.Rat).Set(w)
				if occ < 0 {
					est.Mul(est, rat(count, 1))
				} else {
					est.Mul(est, rat(rs.m, rs.M))
					est.Mul(est, rat(rs.M, rs.m-1))
					est.Mul(est, rat(count-alpha[u], 1))
				}
				theta[u].Add(theta[u], est)
			}
		}
		mean := new(big.Rat)
		for _, th := range theta {
			mean.Add(mean, th)
		}
		mean.Quo(mean, rat(rs.m, 1))
		ss := new(big.Rat)
		var maxTheta, absDev float64
		for _, th := range theta {
			d := new(big.Rat).Sub(th, mean)
			f, _ := th.Float64()
			fd, _ := d.Float64()
			maxTheta, absDev = max(maxTheta, math.Abs(f)), absDev+math.Abs(fd)
			ss.Add(ss, d.Mul(d, d))
		}
		scale := float64(rs.m-1) / float64(rs.m) * float64(rs.M-rs.m) / float64(rs.M)
		slack += scale * 2 * absDev * 2 * 8 * 0x1p-52 * maxTheta
		ss.Mul(ss, rat(rs.m-1, rs.m))
		ss.Mul(ss, rat(rs.M-rs.m, rs.M))
		total.Add(total, ss)
	}
	exact, _ = total.Float64()
	return exact, slack
}
