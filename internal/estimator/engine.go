package estimator

import (
	"context"
	"fmt"
	"sync"

	"relest/internal/algebra"
	"relest/internal/obs"
	"relest/internal/parallel"
	"relest/internal/stats"
)

// The evaluation engine: one engine serves one top-level estimation call
// (point estimate plus variance; Avg's SUM and COUNT share one). It
// couples a plan cache — compiled term plans keyed by (term, instance
// identity), so the point estimate, the closed-form and jackknife
// variance passes and the split-sample pass (which reads each cached plan
// once for every group, algebra.PreparedTerm.Label) share one
// compilation — with the resolved worker count for the call's parallel
// fan-outs.
//
// Every fan-out in this package follows the parallel package's determinism
// contract: results land in index-addressed slots and are reduced in index
// order, and intra-term partitioned evaluation uses a part count fixed by
// the plan (PreparedTerm.Parts), never by the worker count. Estimates are
// therefore bit-identical for every Options.Workers setting.
type engine struct {
	workers int
	plans   *algebra.PlanCache
	// rec receives the call's metrics (never nil — obs.Nop when disabled),
	// and span is the call's root span for per-term/per-replicate children
	// (zero value when tracing is off; zero spans are inert). Recording is
	// passive: it never consumes randomness or reorders reductions, so
	// estimates are bit-identical with or without a live recorder.
	rec  obs.Recorder
	span obs.Span
	// ctx carries the call's cancellation signal (nil = never cancelled).
	// It is polled between terms, never inside an enumeration, so honoring
	// it cannot reorder reductions.
	ctx context.Context
	// pairs holds the moment pass of every term whose plan has the Pairs
	// shape the call has tallied, per contribution (pairMoments), for the
	// closed-form variance — and a COUNT over the same plan — to read
	// instead of probing again; a deadline or sequential round hands it
	// the counts its running tallies carry (keepPairs). Guarded by
	// pairsMu; nil until first use.
	pairsMu sync.Mutex
	pairs   map[pairKey]algebra.PairMoments
}

// pairKey names one tally of a call: a term, whose plan over the call's
// synopsis is one, and the output column its rows are weighted by
// (termContrib.col, negative for the plain counts).
type pairKey struct {
	t   *algebra.Term
	col int
}

// newEngine builds the engine for one top-level estimation call over syn,
// whose key domain its plans code their join keys in. ctx may be nil (no
// cancellation), which is what the non-context entry points pass.
func newEngine(ctx context.Context, syn *Synopsis, opts Options) *engine {
	rec := obs.Or(opts.Recorder)
	return &engine{
		workers: parallel.Resolve(opts.Workers),
		plans:   algebra.NewPlanCacheRec(rec, syn.keys),
		rec:     rec,
		ctx:     ctx,
	}
}

// cancelled returns a non-nil error once the engine's context is done.
// Cancellation is all-or-nothing: any code path that observes it abandons
// the whole estimate, so a partial value can never leak out with a nil
// error.
func (eng *engine) cancelled() error {
	if eng.ctx == nil {
		return nil
	}
	return ctxErr(eng.ctx)
}

// ctxErr wraps a context's error in this package's abort error. The
// wrapped cause stays reachable through errors.Is (context.Canceled /
// context.DeadlineExceeded), which is how servers distinguish "client
// went away" from "budget elapsed".
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("estimator: estimation aborted: %w", err)
	}
	return nil
}

// plan binds the term's occurrences to the synopsis's sample relations and
// returns them with the compiled plan over them.
func (eng *engine) plan(t *algebra.Term, syn *Synopsis) (algebra.Instances, *algebra.PreparedTerm, error) {
	inst, err := algebra.BindInstances(t, syn)
	if err != nil {
		return nil, nil, err
	}
	pt, err := eng.plans.Prepare(t, inst)
	return inst, pt, err
}

// marginals runs the plan's per-row moment pass
// (algebra.PreparedTerm.Marginals) for the jackknife or a closed form
// the pair tally does not serve, and counts the path that served it —
// unless the call already counted term t's tally (pairMoments): the
// counter counts plans a call serves from a moment pass, once each.
func (eng *engine) marginals(t *algebra.Term, pt *algebra.PreparedTerm) algebra.Marginals {
	_, tallied := eng.tallied(t, countContrib)
	switch {
	case tallied:
	case pt.Factorizes():
		eng.rec.Add(mMarginalsFactorized, 1)
	default:
		eng.rec.Add(mMarginalsEnumerated, 1)
	}
	return pt.Marginals()
}

// tallied returns the call's tally of term t under contribution c, if it
// has one.
func (eng *engine) tallied(t *algebra.Term, c termContrib) (algebra.PairMoments, bool) {
	eng.pairsMu.Lock()
	defer eng.pairsMu.Unlock()
	pm, ok := eng.pairs[pairKey{t, c.col}]
	return pm, ok
}

// keepPairs records term t's tally under contribution c and counts it:
// the call's own pass (pairMoments), or one a request's running tally
// carried to this round (algebra.RunningTally), which the point estimate
// and the closed-form variance then read without compiling a plan of t.
func (eng *engine) keepPairs(t *algebra.Term, c termContrib, pm algebra.PairMoments) {
	eng.rec.Add(mMarginalsFactorized, 1)
	eng.pairsMu.Lock()
	defer eng.pairsMu.Unlock()
	if eng.pairs == nil {
		eng.pairs = make(map[pairKey]algebra.PairMoments)
	}
	eng.pairs[pairKey{t, c.col}] = pm
}

// pairMoments returns the call's moment pass of term t, whose plan pt has
// the Pairs shape, under contribution c, whose rows weight w (nil for a
// plain COUNT; see termContrib.rowWeight), running it — and counting it —
// on first use. A SUM's pass records its plain counts too (a weighted
// term's COUNT is its weighted pass, and has no plain count to record).
// The point estimate runs the pass and the closed-form variance, and a
// COUNT of the same plan (Avg), read it, so a call probes each such join
// once.
func (eng *engine) pairMoments(t *algebra.Term, pt *algebra.PreparedTerm, c termContrib, w *algebra.RowWeight) algebra.PairMoments {
	if pm, ok := eng.tallied(t, c); ok {
		return pm
	}
	pm, counts := pt.PairMoments(w)
	eng.keepPairs(t, c, pm)
	if !c.isCount() {
		eng.pairsMu.Lock()
		eng.pairs[pairKey{t, countContrib.col}] = counts
		eng.pairsMu.Unlock()
	}
	return pm
}

// countTerm evaluates a pure count of term t over its plan's fixed
// partitioning, fanning parts across up to `workers` goroutines and
// reducing in part order. A plan of the Pairs shape is counted per key code
// (pairMoments), which keeps its moment pass for the call.
func (eng *engine) countTerm(t *algebra.Term, pt *algebra.PreparedTerm, workers int) float64 {
	if pt.Pairs() {
		return eng.pairMoments(t, pt, countContrib, nil).Total
	}
	parts := pt.Parts()
	if parts == 1 || workers <= 1 {
		return pt.Count()
	}
	partials := make([]float64, parts)
	parallel.For(parts, workers, func(i int) { partials[i] = pt.CountPart(i, parts) })
	total := 0.0
	for _, v := range partials {
		total += v
	}
	return total
}

// sumTerm evaluates Σ contribution(rows) over the plan's satisfying
// assignments with the same fixed partitioned reduction as countTerm.
// contribution runs concurrently across parts and must not retain rows.
func sumTerm(pt *algebra.PreparedTerm, workers int, contribution func(rows []int) float64) float64 {
	parts := pt.Parts()
	partials := make([]float64, parts)
	parallel.For(parts, workers, func(i int) {
		total := 0.0
		pt.EnumeratePart(i, parts, func(rows []int) bool {
			total += contribution(rows)
			return true
		})
		partials[i] = total
	})
	total := 0.0
	for _, v := range partials {
		total += v
	}
	return total
}

// relTermMeta describes one relation of a term for weighting: its
// occurrence indices, its synopsis entry, and the rows n, units m and
// per-row Horvitz–Thompson weights (stratified only; nil under the tuple
// and page designs) of the sample it is weighted by, the synopsis's own
// or a split-sample group's (groupTerm).
type relTermMeta struct {
	rel       string
	occs      []int
	rs        *relSynopsis
	n, m      int
	rowWeight func(row int) float64
}

// factor is the relation's factor f_R(A) of the sampling weight
// w(A) = ∏_R f_R(A) of a satisfying assignment — the inverse of the
// probability that the sample contains the rows A uses from R:
//
//   - one occurrence, uniform design: M/m, the sampling unit's (tuple's or
//     page's) inverse inclusion probability;
//   - one occurrence, stratified design: the Horvitz–Thompson weight
//     N_h/n_h of the row's stratum;
//   - repeated occurrences (tuple SRSWOR only, see checkSampleSizes): the
//     falling-factorial pattern weight (N)_d/(n)_d over the d distinct
//     sample rows A uses from R.
//
// less is the number of sampling units deleted from R's sample: 0 for an
// estimate, 1 for the jackknife's delete-one rescaling (uniform designs
// only). rows is not read when every factor is of the first kind.
func (m *relTermMeta) factor(rows []int, less int) float64 {
	switch {
	case len(m.occs) > 1:
		d := 0
		for i := range m.occs {
			if m.firstUse(rows, i) {
				d++
			}
		}
		return stats.FallingFactorialRatio(m.rs.N, m.n-less, d)
	case m.rowWeight != nil:
		return m.rowWeight(rows[m.occs[0]])
	default:
		return float64(m.rs.M) / float64(m.m-less)
	}
}

// firstUse reports whether the relation's i-th occurrence is the first in
// the assignment to use its sample row (occurrence lists are a handful
// long, so the quadratic scan beats any scratch set).
func (m *relTermMeta) firstUse(rows []int, i int) bool {
	for _, oi := range m.occs[:i] {
		if rows[oi] == rows[m.occs[i]] {
			return false
		}
	}
	return true
}

// termRelMetas lists a term's relations in first-occurrence order. All
// weight products iterate this fixed order (never a map), keeping float
// results reproducible call to call.
func termRelMetas(t *algebra.Term, syn *Synopsis) ([]relTermMeta, error) {
	idx := make(map[string]int, 2)
	var metas []relTermMeta
	for i, o := range t.Occs {
		j, ok := idx[o.RelName]
		if !ok {
			rs, known := syn.rels[o.RelName]
			if !known {
				return nil, fmt.Errorf("estimator: no sample for relation %q in synopsis", o.RelName)
			}
			j = len(metas)
			idx[o.RelName] = j
			metas = append(metas, relTermMeta{rel: o.RelName, rs: rs, n: rs.n, m: rs.m, rowWeight: rs.rowWeightFn()})
		}
		metas[j].occs = append(metas[j].occs, i)
	}
	return metas, nil
}

// checkTermSamples applies the shared empty-sample rule: an empty sample of
// an empty relation contributes zero (ok=false, no error); an empty sample
// of a non-empty relation has no defined scale-up.
func checkTermSamples(metas []relTermMeta) (ok bool, err error) {
	for _, m := range metas {
		if m.m == 0 {
			if m.rs.N == 0 {
				return false, nil
			}
			return false, fmt.Errorf("estimator: empty sample for non-empty relation %q", m.rel)
		}
	}
	return true, nil
}

// boundTerm is one term readied for weighted evaluation over a synopsis:
// its sample instances, compiled plan and per-relation weighting metadata.
type boundTerm struct {
	inst  algebra.Instances
	pt    *algebra.PreparedTerm
	metas []relTermMeta
}

// bindTerm readies the term for evaluation. A nil result with a nil error
// means the term contributes zero (see checkTermSamples).
func (eng *engine) bindTerm(t *algebra.Term, syn *Synopsis) (*boundTerm, error) {
	metas, err := termRelMetas(t, syn)
	if err != nil {
		return nil, err
	}
	if ok, err := checkTermSamples(metas); !ok {
		return nil, err
	}
	inst, pt, err := eng.plan(t, syn)
	if err != nil {
		return nil, err
	}
	return &boundTerm{inst: inst, pt: pt, metas: metas}, nil
}

// weight is the sampling weight w(A) of a satisfying assignment: the
// product of the term's per-relation factors in first-occurrence order.
func weight(metas []relTermMeta, rows []int) float64 {
	w := 1.0
	for i := range metas {
		w *= metas[i].factor(rows, 0)
	}
	return w
}

// constWeight reports whether w(A) is the same for every assignment of a
// term with these relations: no relation repeats and every design is
// uniform, so w ≡ ∏ M/m.
func constWeight(metas []relTermMeta) bool {
	for i := range metas {
		if len(metas[i].occs) > 1 || metas[i].rowWeight != nil {
			return false
		}
	}
	return true
}

// termContrib is the contribution c(A) of a satisfying assignment — the one
// parameter that distinguishes the sample tier's aggregates: 1 for COUNT,
// the value of an output column for SUM. (GROUP BY's contribution is the
// vector of group indicators; it accumulates per group in groupby.go over
// the same weights.)
type termContrib struct {
	// col is the output column position summed, negative for COUNT.
	col int
}

// countContrib is the COUNT contribution: every satisfying assignment
// counts 1 and depends on no particular occurrence.
var countContrib = termContrib{col: -1}

// sumContrib is the SUM contribution for output column position pos: the
// assignment's value of that column, with nulls contributing zero.
func sumContrib(pos int) termContrib { return termContrib{col: pos} }

// isCount reports whether the aggregate is COUNT. A COUNT of a weighted
// term (algebra.Term.Weight, made by fusion) has c(A) = the row weight,
// not 1: plain says whether c(A) = 1 on one term.
func (c termContrib) isCount() bool { return c.col < 0 }

// plain reports whether c(A) = 1 for every assignment of term t: a COUNT
// of an unweighted term.
func (c termContrib) plain(t *algebra.Term) bool { return c.isCount() && t.Weight == nil }

// rowWeight resolves the contribution against one term, whose plan is pt,
// as a weight on the rows of one occurrence (nil when plain): for a SUM
// the occurrence that supplies the output column, which maps to an
// occurrence column through the term's Out mapping, a null cell weighing
// 0; for a COUNT of a weighted term its row weight (PreparedTerm.Weight).
// A SUM over a weighted term is refused: fusion serves COUNT only.
func (c termContrib) rowWeight(t *algebra.Term, pt *algebra.PreparedTerm) (*algebra.RowWeight, error) {
	if t.Weight != nil {
		if !c.isCount() {
			return nil, fmt.Errorf("estimator: SUM over a weighted term")
		}
		return pt.Weight(), nil
	}
	if c.isCount() {
		return nil, nil
	}
	if c.col >= len(t.Out) {
		return nil, fmt.Errorf("estimator: output column %d outside term mapping of width %d", c.col, len(t.Out))
	}
	ref := t.Out[c.col]
	src := pt.Instances()[ref.Occ]
	return &algebra.RowWeight{Occ: ref.Occ, W: func(row int) float64 {
		f, _ := src.Float64(row, ref.Col) // a null cell reads 0
		return f
	}}, nil
}

// bind resolves the contribution against one term, whose plan is pt, as a
// function of the assignment. The returned function must not retain rows.
func (c termContrib) bind(t *algebra.Term, pt *algebra.PreparedTerm) (func(rows []int) float64, error) {
	w, err := c.rowWeight(t, pt)
	if err != nil || w == nil {
		return func([]int) float64 { return 1 }, err
	}
	return func(rows []int) float64 { return w.W(rows[w.Occ]) }, nil
}

// splitWorkers decides where a polynomial's parallelism goes: across terms
// when there are several, inside the single term's partitions otherwise.
// The choice never affects values (reductions are fixed either way), only
// scheduling.
func splitWorkers(numTerms, workers int) (outer, inner int) {
	if numTerms <= 1 {
		return 1, workers
	}
	return workers, 1
}

// ---------------------------------------------------------------------------
// Single-pass jackknife.
//
// Re-evaluating the whole polynomial once per deleted sampling unit costs
// O(Σ_R m_R × enum). The jackknife supports only the uniform per-relation
// factors (tuple or page design), and under them one pass per term
// suffices. Write the full-sample estimate of term T as
//
//	Ŝ_T = Σ_A c(A)·w(A),   w(A) = ∏_{R∈T} f_R(d_R(A)),
//
// where c is the contribution (1 for COUNT, a column value for SUM),
// f_R(d) = (N_R)_d/(n_R)_d is the falling-factorial pattern factor (which
// collapses to M_R/m_R when R occurs once), and d_R(A) is the number of
// distinct sample rows A uses from R. Deleting unit u of relation R keeps
// exactly the assignments that avoid u's rows and rescales R's factor to
// f′_R(d) — the same factor with m_R−1 (resp. n_R−1) units — so the
// replicate estimate of T is
//
//	Ŝ_T(R,u) = Σ_{A ∌ u} c·w′_R(A),  w′_R(A) = w(A)·f′_R(d_R(A))/f_R(d_R(A))
//	         = S′_{T,R} − a_{T,R,u},
//
// with S′_{T,R} = Σ_A c·w′_R(A) and a_{T,R,u} = Σ_{A using u at R} c·w′_R(A).
// One pass accumulates S′ and the per-unit a totals for every relation
// simultaneously, and every delete-one estimate is then a pair of
// additions: O(pass + Σ m) total.
//
// The pass depends on the term:
//   - a COUNT term whose relations each occur once has one weight w and
//     one deletion weight w′_R for every assignment, so Ŝ = w·T,
//     S′_{T,R} = w′_R·T and a_{T,R,u} = w′_R·α_u, where T is the number of
//     assignments and α_u the number that use unit u's rows at R. Both
//     come from the term's moment pass (algebra.PreparedTerm.Marginals),
//     which counts an equi-join per key code in O(Σ n) reads, enumerates
//     only a plan's enumerated prefix, and fills folded occurrences in
//     closed form — so no COUNT walks a folded tail's cross product;
//   - every other term (SUM, repeated relations), whose contribution or
//     pattern weight varies by assignment, enumerates its assignments once,
//     fanned across the plan's parts — the pass its point estimate
//     (sumTerm) already makes.
// ---------------------------------------------------------------------------

// countTermAcc fills a COUNT term's accumulators from its moment pass when
// every relation occurs once under a uniform design: every assignment has
// weight w = ∏ f_R and, with one unit of R deleted, w′_R, so Ŝ = w·T,
// S′_R = w′_R·T and unit u's total is Σ_{row ∈ u} w′_R·α_row, α_row the
// row's marginal at R's occurrence — one product per row where enumeration
// added w′_R once per assignment.
func countTermAcc(mg algebra.Marginals, metas []relTermMeta) *jackTermAcc {
	acc := newJackTermAcc(metas)
	w := 1.0
	for j := range metas {
		w *= metas[j].factor(nil, 0)
	}
	acc.s = w * mg.Total
	for j := range metas {
		m := &metas[j]
		wp := w / m.factor(nil, 0) * m.factor(nil, 1)
		acc.rels[j].sPrime = wp * mg.Total
		perUnit := acc.rels[j].perUnit
		ru := m.rs.rowUnits()
		for row, alpha := range mg.Rows[m.occs[0]] {
			perUnit[ru[row]] += wp * alpha
		}
	}
	return acc
}

// jackTermAcc accumulates one term's single-pass totals; rels is aligned
// with the term's relTermMetas order.
type jackTermAcc struct {
	s    float64 // Σ c·w over all assignments
	rels []jackRelAcc
}

type jackRelAcc struct {
	sPrime  float64   // Σ c·w′_R
	perUnit []float64 // a_{R,u}: Σ c·w′_R over assignments using unit u at R
}

func newJackTermAcc(metas []relTermMeta) *jackTermAcc {
	acc := &jackTermAcc{rels: make([]jackRelAcc, len(metas))}
	for j, m := range metas {
		acc.rels[j].perUnit = make([]float64, m.rs.m)
	}
	return acc
}

func (acc *jackTermAcc) merge(other *jackTermAcc) {
	acc.s += other.s
	for j := range acc.rels {
		acc.rels[j].sPrime += other.rels[j].sPrime
		for u, v := range other.rels[j].perUnit {
			acc.rels[j].perUnit[u] += v
		}
	}
}

// jackknifeSinglePass computes the delete-one jackknife variance in one
// moment or enumeration pass per term (see the derivation above). The
// per-relation design and sample-size preconditions have already been
// checked by the caller.
func jackknifeSinglePass(poly algebra.Polynomial, syn *Synopsis, eng *engine, contrib termContrib) (float64, error) {
	rels := poly.RelationNames()
	relIdx := make(map[string]int, len(rels))
	for i, rel := range rels {
		relIdx[rel] = i
	}

	// Per-term accumulation, fanned across terms or partitions.
	accs := make([]*jackTermAcc, len(poly.Terms))
	metasByTerm := make([][]relTermMeta, len(poly.Terms))
	outer, inner := splitWorkers(len(poly.Terms), eng.workers)
	err := parallel.ForErrRec(len(poly.Terms), outer, eng.rec, func(ti int) error {
		if err := eng.cancelled(); err != nil {
			return err
		}
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
		if contrib.plain(t) && constWeight(metas) {
			accs[ti] = countTermAcc(eng.marginals(t, pt), metas)
			return nil
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
				//lint:ignore floateq exactly-zero contributions add nothing to any replicate; skipping them is order-independent
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
					// Charge every distinct unit the assignment uses at R
					// (repeats imply the tuple design: units are rows).
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

	// Merge terms (in term order) into per-relation replicate components:
	// θ_(R,u) = base_R + sPrime_R − a_R[u].
	type relGlobal struct {
		rs     *relSynopsis
		base   float64 // Σ_{T∌R} coef·Ŝ_T
		sPrime float64 // Σ_{T∋R} coef·S′_{T,R}
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
