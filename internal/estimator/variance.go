package estimator

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"relest/internal/algebra"
	"relest/internal/parallel"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/stats"
)

// estimateVariance is the variance ladder of every aggregate: it runs the
// requested method and returns the variance estimate together with the
// method actually used. VarAuto resolves to the first rung that applies —
// closed form, split-sample with the group count shrunk to fit the
// samples, jackknife, none — whereas an explicitly requested method runs
// as asked or fails. The one exception is a SUM asking for VarAnalytic: it
// takes the closed form where one exists and otherwise degrades to
// VarAuto's ladder instead of failing.
func estimateVariance(poly algebra.Polynomial, syn *Synopsis, opts Options, eng *engine, contrib termContrib) (float64, VarianceMethod, error) {
	method := opts.Variance
	if method == VarAnalytic && !contrib.isCount() {
		method = VarAuto
	}
	switch method {
	case VarNone:
		return math.NaN(), VarNone, nil
	case VarAnalytic:
		if v, ok, err := analyticVariance(poly, syn, eng, contrib); err != nil {
			return 0, VarAnalytic, err
		} else if ok {
			return v, VarAnalytic, nil
		}
		return 0, VarAnalytic, fmt.Errorf("estimator: no closed-form variance for this expression shape; use split-sample or jackknife")
	case VarSplitSample:
		v, err := splitSampleVariance(poly, syn, opts, false, eng, contrib)
		return v, VarSplitSample, err
	case VarJackknife:
		v, err := jackknifeVariance(poly, syn, eng, contrib)
		return v, VarJackknife, err
	default: // VarAuto
		if v, ok, err := analyticVariance(poly, syn, eng, contrib); err == nil && ok {
			return v, VarAnalytic, nil
		}
		if v, err := splitSampleVariance(poly, syn, opts, true, eng, contrib); err == nil {
			return v, VarSplitSample, nil
		}
		if v, err := jackknifeVariance(poly, syn, eng, contrib); err == nil {
			return v, VarJackknife, nil
		}
		return math.NaN(), VarNone, nil
	}
}

// analyticVariance returns a closed-form variance estimate when one exists:
//
//   - polynomials over a single relation in which every term uses one
//     occurrence: the whole estimator is N·ȳ for per-tuple scores y, so the
//     classical SRSWOR total variance N²(1−f)s²/n applies exactly and its
//     plug-in is unbiased;
//   - a single term over two distinct relations (the paper's join
//     estimator): the exactly unbiased two-sample variance estimator
//     derived from the second-moment decomposition over index-equality
//     patterns (see below). A COUNT has it for every such term; a SUM for
//     an equi-join, whose weighted pair tally supplies its sums.
//
// The boolean result reports whether a closed form applied.
func analyticVariance(poly algebra.Polynomial, syn *Synopsis, eng *engine, contrib termContrib) (float64, bool, error) {
	if poly.NumTerms() == 0 {
		return 0, true, nil // fusion cancelled every term: the count is 0 exactly
	}
	if len(poly.RelationNames()) == 1 && poly.MaxOccurrences() == 1 {
		v, err := singleRelationVariance(poly, syn, eng, contrib)
		return v, err == nil, err
	}
	if poly.NumTerms() == 1 && len(poly.Terms[0].Occs) == 2 &&
		poly.Terms[0].Occs[0].RelName != poly.Terms[0].Occs[1].RelName &&
		plainTupleSample(syn.rels[poly.Terms[0].Occs[0].RelName]) &&
		plainTupleSample(syn.rels[poly.Terms[0].Occs[1].RelName]) {
		t := &poly.Terms[0]
		sums, ok, err := twoRelationSums(t, syn, eng, contrib)
		if !ok || err != nil {
			return 0, false, err
		}
		v, err := twoRelationTermVariance(t, syn, sums)
		return v, err == nil, err
	}
	return 0, false, nil
}

// plainTupleSample reports an unstratified tuple-level SRSWOR sample — the
// design the two-relation variance closed form is derived for.
func plainTupleSample(rs *relSynopsis) bool {
	return rs != nil && rs.tupleDesign() && rs.uniformWeights()
}

// singleRelationVariance handles polynomials over one relation with one
// occurrence per term. Every sample tuple i has a deterministic score
// y_i = Σ_j coef_j·c_j(t_i)·ψ_j(t_i), c_j the contribution (1 for COUNT,
// the summed column's value for SUM); summed within each sampling unit
// this gives per-unit totals z_u, the estimator equals M·z̄, and
// Var̂ = M²(1−m/M)s²_z/m (Cochran), which is unbiased for both the tuple
// design (units are tuples) and the page design (units are pages — the
// "ultimate cluster" variance). Nothing in the derivation asks more of y
// than being a function of the tuple.
// The totals enter s²_z by ascending unit id (relSynopsis.unitOrder), so
// an extended sample gets the bits a fresh draw of its units would.
//
// Enumeration is serial (the score vector is shared across terms), but the
// plans come from the engine cache, so this pass reuses the point
// estimate's compiled indexes.
func singleRelationVariance(poly algebra.Polynomial, syn *Synopsis, eng *engine, contrib termContrib) (float64, error) {
	rel := poly.RelationNames()[0]
	rs := syn.rels[rel]
	if rs.m < 2 {
		return 0, fmt.Errorf("estimator: sample of %q too small for variance (m=%d units)", rel, rs.m)
	}
	y := make([]float64, rs.n)
	for i := range poly.Terms {
		t := &poly.Terms[i]
		_, pt, err := eng.plan(t, syn)
		if err != nil {
			return 0, err
		}
		value, err := contrib.bind(t, pt)
		if err != nil {
			return 0, err
		}
		coef := float64(t.Coef)
		pt.Enumerate(func(rows []int) bool {
			y[rows[0]] += coef * value(rows)
			return true
		})
	}
	if rs.stratified() {
		// Stratified closed form: independent SRSWOR within each stratum,
		// so Var̂ = Σ_h N_h²(1−f_h)s²_h/n_h — exactly unbiased, and the
		// quantity stratification exists to shrink.
		total := 0.0
		for _, st := range rs.strata {
			var w stats.Welford
			for _, u := range st.units { // a stratified unit is a row
				w.Add(y[u])
			}
			if len(st.units) < 2 {
				if st.Nh <= len(st.units) {
					continue // census stratum contributes no variance
				}
				return 0, fmt.Errorf("estimator: stratum of %q has %d sampled rows; need 2 for variance", rel, len(st.units))
			}
			total += stats.TotalVariance(st.Nh, len(st.units), w.Variance())
		}
		return total, nil
	}
	var w stats.Welford
	for _, u := range rs.unitOrder() {
		lo, hi := rs.unitRows(u)
		z := 0.0
		for _, yi := range y[lo:hi] {
			z += yi
		}
		w.Add(z)
	}
	return stats.TotalVariance(rs.M, rs.m, w.Variance()), nil
}

// unitOrder lists the sampled units by ascending unit id: the draw order
// of a sample never extended, and otherwise the order a fresh draw of the
// same units would hold them in. A float sum over it has bits that depend
// on the sample alone, not on the order extensions appended its units in.
func (rs *relSynopsis) unitOrder() []int {
	order := make([]int, rs.m)
	for u := range order {
		order[u] = u
	}
	if !slices.IsSorted(rs.units) {
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(rs.units[a], rs.units[b]) })
	}
	return order
}

// twoRelationSums reads the four sample sums the two-relation closed form
// needs, as a PairMoments, for a two-occurrence term whose satisfying
// sample pairs (u, v) carry contributions y(u, v) (1 for COUNT):
// Total = T = Σ y, SumY2 = Σ y², and SumSq = (Σ_u α_u², Σ_v β_v²), with
// α_u = Σ_v y(u, v) the total of sample row u of the first occurrence and
// β_v that of row v of the second. An equi-join reads the pair tally the
// point estimate already made (engine.pairMoments), weighted by the summed
// column for a SUM: no probe and no per-row vector here. A COUNT over any
// other plan (a θ-join, say) reads the per-row moment pass
// (engine.marginals); a SUM over one has no closed form (ok false). Every
// partial sum of a COUNT is an integer below 2^53, so either way its sums
// have the bits a sum over enumerated per-row counts has.
func twoRelationSums(t *algebra.Term, syn *Synopsis, eng *engine, contrib termContrib) (algebra.PairMoments, bool, error) {
	if pm, ok := eng.tallied(t, contrib); ok {
		return pm, true, nil
	}
	_, pt, err := eng.plan(t, syn)
	if err != nil {
		return algebra.PairMoments{}, false, err
	}
	if pt.Pairs() {
		w, err := contrib.rowWeight(t, pt)
		if err != nil {
			return algebra.PairMoments{}, false, err
		}
		return eng.pairMoments(t, pt, contrib, w), true, nil
	}
	if !contrib.plain(t) {
		return algebra.PairMoments{}, false, nil
	}
	mg := eng.marginals(t, pt)
	s := algebra.PairMoments{Total: mg.Total, SumY2: mg.Total, SumSq: make([]float64, 2)}
	for occ, rows := range mg.Rows {
		for _, a := range rows {
			s.SumSq[occ] += a * a
		}
	}
	return s, true, nil
}

// twoRelationTermVariance implements the exactly unbiased variance
// estimator for Ĵ = c·T, c = N₁N₂/(n₁n₂), T = Σ_{u∈s₁,v∈s₂} y(u,v), with
// independent SRSWOR samples and y(u,v) the pair's contribution times its
// join indicator ψ(u,v) — 1·ψ for COUNT, the summed column's value times ψ
// for SUM.
//
// Decompose E[T²] over the index-equality patterns of the pair of pairs
// ((u,v),(u′,v′)):
//
//	E[T²] = p₁₁S₁₁ + p₁₂S₁₂ + p₂₁S₂₁ + p₂₂S₂₂
//
// with population quantities (a_U = Σ_V y(U,V), b_V = Σ_U y(U,V))
//
//	S₁₁ = Σ y²,  S₁₂ = Σ_U a_U² − Σ y²,  S₂₁ = Σ_V b_V² − Σ y²,
//	S₂₂ = J² − Σa² − Σb² + Σ y²,
//
// and inclusion probabilities p₁₁ = (n₁n₂)/(N₁N₂),
// p₁₂ = (n₁/N₁)·(n₂)₂/(N₂)₂, p₂₁ symmetric, p₂₂ = (n₁)₂/(N₁)₂·(n₂)₂/(N₂)₂.
// Each S is estimated unbiasedly from the sample by the same
// falling-factorial scaling, and since J² = S₁₁+S₁₂+S₂₁+S₂₂,
//
//	Var̂(Ĵ) = c²·(p₁₁Ŝ₁₁ + p₁₂Ŝ₁₂ + p₂₁Ŝ₂₁ + p₂₂Ŝ₂₂) − (Ŝ₁₁+Ŝ₂₁+Ŝ₁₂+Ŝ₂₂)
//
// is unbiased. It can be negative on unlucky samples, as unbiased variance
// estimators are allowed to be. For COUNT y² = y, so Σ y² is T.
//
// The sample statistics are T, Σy², Σα² and Σβ² (twoRelationSums), where
// α_u (β_v) is the total contribution of sample row u of R₁ (v of R₂).
func twoRelationTermVariance(t *algebra.Term, syn *Synopsis, s algebra.PairMoments) (float64, error) {
	rel1, rel2 := t.Occs[0].RelName, t.Occs[1].RelName
	n1, _ := syn.SampleSize(rel1)
	n2, _ := syn.SampleSize(rel2)
	N1, _ := syn.PopulationSize(rel1)
	N2, _ := syn.PopulationSize(rel2)
	if n1 < 2 || n2 < 2 {
		return 0, fmt.Errorf("estimator: samples too small for the two-relation variance (n1=%d, n2=%d)", n1, n2)
	}
	r1 := stats.FallingFactorialRatio(N1, n1, 1)  // N1/n1
	r2 := stats.FallingFactorialRatio(N2, n2, 1)  // N2/n2
	r11 := stats.FallingFactorialRatio(N1, n1, 2) // (N1)₂/(n1)₂
	r22 := stats.FallingFactorialRatio(N2, n2, 2)

	T, y2, a2, b2 := s.Total, s.SumY2, s.SumSq[0], s.SumSq[1]
	s11 := r1 * r2 * y2
	s12 := r1 * r22 * (a2 - y2)
	s21 := r11 * r2 * (b2 - y2)
	s22 := r11 * r22 * (T*T - a2 - b2 + y2)

	c := r1 * r2
	p11 := 1 / (r1 * r2)
	p12 := (1 / r1) * (1 / r22)
	p21 := (1 / r11) * (1 / r2)
	p22 := (1 / r11) * (1 / r22)

	ej2 := c * c * (p11*s11 + p12*s12 + p21*s21 + p22*s22)
	j2 := s11 + s12 + s21 + s22
	return ej2 - j2, nil
}

// splitSampleVariance estimates variance by replication: each relation's
// sample is randomly partitioned into g groups; replicate i is the point
// estimate from the i-th group of every relation, and one labelled pass
// per term over the full sample's plan gives every replicate's value of
// the term (groupTerm). A replicate uses
// samples of size n/g, so to first order Var(replicate) ≈ g·Var(full), and
//
//	Var̂(full) ≈ s²_replicates / g.
//
// This is the generic method for arbitrary polynomials: it automatically
// captures the covariances between polynomial terms because each replicate
// recomputes the entire polynomial. It is approximate (the 1/n scaling of
// every variance component is first-order), in exchange for requiring
// nothing about the expression's shape.
//
// When shrink is true (the method was resolved by VarAuto, not requested)
// the group count is reduced as needed so that each group keeps at least
// max-occurrences rows per relation; otherwise too-small samples are an
// error.
func splitSampleVariance(poly algebra.Polynomial, syn *Synopsis, opts Options, shrink bool, eng *engine, contrib termContrib) (float64, error) {
	need := max(poly.MaxOccurrences(), 1)
	g := opts.Groups
	minM := math.MaxInt
	for _, rel := range poly.RelationNames() {
		rs, ok := syn.rels[rel]
		if !ok {
			return 0, fmt.Errorf("estimator: no sample for %q", rel)
		}
		// Stratified groups must keep every stratum populated, so the
		// smallest stratum bounds the group count.
		minM = min(minM, rs.m)
		for _, st := range rs.strata {
			minM = min(minM, len(st.units))
		}
	}
	if minM/g < need {
		if !shrink {
			return 0, fmt.Errorf("estimator: %d split-sample groups leave fewer than %d sampling units per group (min sample %d units)", g, need, minM)
		}
		g = min(minM/need, opts.Groups)
	}
	if g < 2 {
		return 0, fmt.Errorf("estimator: samples too small for split-sample variance (min sample %d units, need %d per group)", minM, need)
	}
	// Every group holds at least need units of each relation. Replicate l
	// adds its terms' values in term order, as pointEstimate does.
	rng := sampling.Seeded(opts.Seed ^ 0x5eed5eed)
	groups := make(map[string]*relGroups)
	labels := make(map[*relation.Relation][]int32)
	for _, rel := range poly.RelationNames() {
		rs := syn.rels[rel]
		groups[rel] = rs.split(rng, g)
		labels[rs.sample] = groups[rel].rows
	}
	eng.rec.Add(mRepSplit, float64(g))
	rspan := eng.span.Child(sReplicate)
	defer rspan.End()
	vals := make([][]float64, len(poly.Terms))
	outer, inner := splitWorkers(len(poly.Terms), eng.workers)
	err := parallel.ForErrRec(len(poly.Terms), outer, eng.rec, func(ti int) error {
		if err := eng.cancelled(); err != nil {
			return err
		}
		v, err := groupTerm(&poly.Terms[ti], syn, eng, inner, contrib, g, groups, labels)
		vals[ti] = v
		return err
	})
	if err != nil {
		return 0, err
	}
	var reps stats.Welford
	for l := 0; l < g; l++ {
		total := 0.0
		for ti := range poly.Terms {
			total += float64(poly.Terms[ti].Coef) * vals[ti][l]
		}
		reps.Add(total)
	}
	return reps.Variance() / float64(g), nil
}

// relGroups is one relation's split-sample groups: every sample row's
// group, each group's rows n[l] and units m[l], and for a stratified
// sample every row's weight N_h/n_{h,l} in its own group.
type relGroups struct {
	rows      []int32
	n, m      []int
	rowWeight func(row int) float64
}

// groupTerm is estimateTerm, on its paths, for every split-sample group at
// once, read off the term's labelled pass (algebra.PreparedTerm.Label):
// group l's value is weighted by group l's own sample sizes — M/m_l,
// (N)_d/(n_l)_d, or N_h/n_{h,l} for a stratified row.
func groupTerm(t *algebra.Term, syn *Synopsis, eng *engine, workers int, contrib termContrib, g int, groups map[string]*relGroups, labels map[*relation.Relation][]int32) ([]float64, error) {
	metas, err := termRelMetas(t, syn)
	if err != nil {
		return nil, err
	}
	_, pt, err := eng.plan(t, syn)
	if err != nil {
		return nil, err
	}
	lt, err := pt.Label(g, labels)
	if err != nil {
		return nil, err
	}
	gm := make([][]relTermMeta, g) // metas weighted by each group's sample
	for l := range gm {
		gm[l] = slices.Clone(metas)
		for j := range gm[l] {
			gr := groups[metas[j].rel]
			gm[l][j].n, gm[l][j].m = gr.n[l], gr.m[l]
			if gr.rowWeight != nil {
				gm[l][j].rowWeight = gr.rowWeight
			}
		}
	}
	if constWeight(metas) {
		var totals []float64
		if contrib.plain(t) {
			totals = lt.Counts(workers)
		} else if pt.Pairs() {
			w, err := contrib.rowWeight(t, pt)
			if err != nil {
				return nil, err
			}
			if pt.Enumerated(w.Occ) {
				totals = lt.PairTotals(w)
			}
		}
		if totals != nil {
			for l, v := range totals {
				totals[l] = weight(gm[l], nil) * v
			}
			return totals, nil
		}
	}
	value, err := contrib.bind(t, pt)
	if err != nil {
		return nil, err
	}
	return lt.Sums(workers, func(l int, rows []int) float64 {
		return value(rows) * weight(gm[l], rows)
	}), nil
}

// jackknifeVariance estimates variance with delete-one replicates: for
// each relation R and each sampling unit u (tuple or page), θ₍ᵤ₎ is the
// point estimate over the sample without that unit; the per-relation jackknife
// variances (m−1)/m·Σ(θ₍ᵤ₎−θ̄)², each scaled by the finite-population
// correction (1−m/M), add up across relations (the samples are
// independent).
//
// The replicates are derived from a single moment or enumeration pass per
// term (see jackknifeSinglePass): O(pass + Σ m_R) instead of Σ m_R full
// re-evaluations.
func jackknifeVariance(poly algebra.Polynomial, syn *Synopsis, eng *engine, contrib termContrib) (float64, error) {
	need := poly.MaxOccurrences()
	for _, rel := range poly.RelationNames() {
		rs, ok := syn.rels[rel]
		if !ok {
			return 0, fmt.Errorf("estimator: no sample for %q", rel)
		}
		if rs.stratified() {
			return 0, fmt.Errorf("estimator: jackknife does not support the stratified sample of %q; use the analytic or split-sample variance", rel)
		}
		if rs.n-rs.largestUnit() < need || rs.m < 2 {
			return 0, fmt.Errorf("estimator: sample of %q too small for jackknife (m=%d units, need %d rows after deletion)", rel, rs.m, need)
		}
	}
	return jackknifeSinglePass(poly, syn, eng, contrib)
}

// largestUnit returns the row count of the largest sampled unit (for the
// jackknife's worst-case post-deletion sample-size check).
func (rs *relSynopsis) largestUnit() int {
	best := 0
	for u := range rs.m {
		lo, hi := rs.unitRows(u)
		best = max(best, hi-lo)
	}
	return best
}
