// Package estimator implements the paper's contribution: statistical point
// estimators, variance estimators and confidence intervals for COUNT(E)
// over relational algebra expressions E, computed from simple random
// samples drawn without replacement (SRSWOR) from each base relation.
//
// The packages below it provide the machinery: algebra normalizes COUNT(E)
// into a counting polynomial of conjunctive terms; sampling draws and
// maintains the samples; stats supplies the finite-population variance
// algebra and distributions. This package combines them:
//
//   - terms whose base relations each occur once are estimated by the
//     classical scale-up (∏ N_i/n_i) · count-over-samples;
//   - terms with repeated relations (self-joins, ∩ expansions) are
//     estimated with falling-factorial pattern weights — the multivariate
//     hypergeometric (U-statistic) correction that restores unbiasedness;
//   - distinct counts (π) use Goodman's unbiased estimator and practical
//     consistent alternatives;
//   - SUM, AVG and GROUP BY are the same estimator with a different
//     per-assignment contribution (the authors' TODS 1991 follow-up): one
//     kernel, Σ_T coef_T·Σ_A c(A)·w(A), serves every aggregate;
//   - variance comes from closed forms where they exist (single-relation
//     polynomials, two-relation join terms) and from split-sample
//     replication or the delete-one jackknife otherwise;
//   - sequential (double) sampling sizes the sample for a target error,
//     and deadline mode grows it until a time budget expires;
//   - an incremental synopsis maintains the samples under insert/delete
//     streams so all of the above run continuously;
//   - page-level (cluster) sampling models the physical design CASE-DB
//     actually sampled — whole disk pages — trading statistical
//     efficiency for I/O efficiency.
package estimator

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"relest/internal/algebra"
	"relest/internal/relation"
	"relest/internal/sampling"
)

// relSynopsis is the per-relation part of a synopsis: a uniform sample of
// the relation plus its exact cardinality.
//
// The sampling unit is either a tuple (simple random sampling, the paper's
// main design) or a fixed-size page of consecutive tuples (cluster
// sampling, the physical design). Both are represented uniformly: the
// population consists of M units, m of which were drawn SRSWOR, and every
// sampled unit's tuples are one consecutive range of the sample relation's
// rows, in unit order. For the tuple design M = N, m = n and unit u is
// sample row u, so no layout is stored; a page design keeps the ranges'
// boundaries in unitStart.
type relSynopsis struct {
	name   string
	sample *relation.Relation // rows are the sampled tuples
	n      int                // sampled tuples (== sample.Len())
	N      int                // population tuples

	M, m     int // population / sampled sampling units
	pageSize int // 0 for tuple design, > 0 for page design
	// unitStart is the page design's layout: unit u holds sample rows
	// [unitStart[u], unitStart[u+1]) (len m+1). nil for tuple designs.
	unitStart []int32

	// strata is non-nil for stratified tuple samples: each stratum has its
	// own population size and its own SRSWOR sample, so the inverse
	// inclusion probability varies by stratum.
	strata []stratumInfo

	// base and unit ids are retained when the synopsis was drawn from a
	// stored relation, enabling sample extension (sequential estimation).
	// units[u] is the id within [0, M) of unit u: the first draw's ids
	// ascending, then every extension's in draw order, so units (and the
	// sample's rows) are not sorted once the sample has been extended.
	// draw is the draw state units grow by (sampling.Draw), made on the
	// first extension and kept by the later ones; a clone drops it.
	base  *relation.Relation
	units []int
	draw  *sampling.Draw

	// distinct memoizes whether the population — base's first N rows —
	// holds no two equal rows (duplicateFree); set on every synopsis
	// drawn from a base, shared by its clones, nil on samples added
	// without one.
	distinct *popDistinct
}

// popDistinct is the memo behind Synopsis.duplicateFree: computed by the
// first request that asks, never at draw time, and only the bit is kept.
type popDistinct struct {
	once sync.Once
	set  bool
}

// stratumInfo describes one stratum of a stratified sample.
type stratumInfo struct {
	Nh    int   // population tuples in the stratum
	units []int // unit (== row) indices of the stratum's sampled tuples
}

// stratified reports whether the relation uses a stratified design.
func (rs *relSynopsis) stratified() bool { return rs.strata != nil }

// uniformWeights reports whether every sampling unit shares the same
// inverse inclusion probability (true for the tuple and page designs,
// false for stratified samples).
func (rs *relSynopsis) uniformWeights() bool { return rs.strata == nil }

// rowWeightFn returns the per-sample-row inverse inclusion probability of
// a stratified sample (N_h/n_h of the row's stratum), or nil when every
// sampling unit shares the one weight scale().
func (rs *relSynopsis) rowWeightFn() func(row int) float64 {
	if rs.uniformWeights() {
		return nil
	}
	weights := make([]float64, rs.n)
	for _, st := range rs.strata {
		w := float64(st.Nh) / float64(len(st.units))
		for _, u := range st.units { // a stratified unit is a row
			weights[u] = w
		}
	}
	return func(row int) float64 { return weights[row] }
}

// tupleDesign reports whether the relation was sampled tuple-at-a-time
// (required by the repeated-relation pattern weights and the two-relation
// variance closed form).
func (rs *relSynopsis) tupleDesign() bool { return rs.pageSize == 0 }

// scale returns the inverse inclusion probability of one sampling unit —
// the per-occurrence weight of the point estimator.
func (rs *relSynopsis) scale() float64 { return float64(rs.M) / float64(rs.m) }

// unitRows returns the [lo, hi) range of sample rows that unit u holds.
func (rs *relSynopsis) unitRows(u int) (int, int) {
	if rs.unitStart == nil {
		return u, u + 1
	}
	return int(rs.unitStart[u]), int(rs.unitStart[u+1])
}

// rowUnits returns the sampling-unit index of every sample row (the
// identity for tuple designs, the owning page for page designs). Used by
// the single-pass jackknife to charge assignments to deletable units.
func (rs *relSynopsis) rowUnits() []int {
	out := make([]int, rs.n)
	for u := range rs.m {
		lo, hi := rs.unitRows(u)
		for row := lo; row < hi; row++ {
			out[row] = u
		}
	}
	return out
}

// addUnits appends the given newly drawn units (ids within [0, M)) to the
// sample: their rows join the sample view behind the rows it holds, in
// unit order — a page's rows consecutively, the base's last page possibly
// short — and the view's built indexes grow by the new rows only
// (relation.Relation.Extend). A synopsis without a view yet gets one.
func (rs *relSynopsis) addUnits(ids []int) {
	rs.reserve(len(ids))
	rs.units = append(rs.units, ids...)
	rs.admit(len(ids))
}

// reserve makes room in units for add more. An extension keeps as much
// room again as the units it holds, as the view does, so geometric rounds
// copy each unit id a bounded number of times; a first draw is stored at
// its size.
func (rs *relSynopsis) reserve(add int) {
	if rs.units != nil && len(rs.units)+add > cap(rs.units) {
		rs.units = slices.Grow(rs.units, len(rs.units)+2*add)
	}
}

// admit adds the rows of the last k units to the sample view (addUnits).
func (rs *relSynopsis) admit(k int) {
	ids := rs.units[len(rs.units)-k:]
	rows := ids
	if !rs.tupleDesign() {
		rows = nil
		if rs.unitStart == nil {
			rs.unitStart = []int32{0}
		}
		for _, p := range ids {
			for i := p * rs.pageSize; i < min((p+1)*rs.pageSize, rs.N); i++ {
				rows = append(rows, i)
			}
			rs.unitStart = append(rs.unitStart, int32(rs.n+len(rows)))
		}
	}
	if rs.sample == nil {
		//lint:ignore viewescape the synopsis IS a retained sample view by design: the capacity clamp snapshots the base at draw time, and bases are append-only
		rs.sample = rs.base.Subset(rs.name, rows)
	} else {
		//lint:ignore viewescape extension appends to the retained sample view; the fresh clamp covers the newly drawn rows
		rs.sample = rs.sample.Extend(rs.base, rows)
	}
	rs.m = len(rs.units)
	rs.n = rs.sample.Len()
}

// duplicateFree reports whether the population the named relation's
// sample was drawn from — the first N rows of its stored base — holds no
// two equal rows (relation.Relation.RowsDistinct). The first call per
// relation computes it, by one scan of the base, and later calls and
// clones read the memo. A sample added without a base (AddSample, and
// so every Incremental snapshot) is not known to be duplicate-free.
func (s *Synopsis) duplicateFree(name string) bool {
	rs, ok := s.rels[name]
	if !ok || rs.distinct == nil {
		return false
	}
	rs.distinct.once.Do(func() { rs.distinct.set = rs.base.RowsDistinct(rs.N) })
	return rs.distinct.set
}

// countPoly is the polynomial a COUNT of e is estimated from: e's
// normalization, fused (algebra.Fuse) when e holds a set operation, so
// the terms a set operation over one relation that is duplicate-free here
// expands into collapse and merge into weighted terms. Only COUNT
// requests fuse; SUM, AVG and GROUP BY keep the polynomial Normalize
// made, and so does an expression without a set operation.
func (s *Synopsis) countPoly(e *algebra.Expr) (algebra.Polynomial, error) {
	poly, err := algebra.Normalize(e)
	if err != nil || !e.HasSetOp() {
		return poly, err
	}
	return algebra.Fuse(poly, s.duplicateFree), nil
}

// Synopsis is the estimator's input: one uniform sample per base relation,
// with known population sizes. It implements algebra.Catalog by exposing
// the sample relations under the base-relation names, which is what lets
// the counting-polynomial machinery run unchanged over samples.
type Synopsis struct {
	rels map[string]*relSynopsis

	// keys is the key domain every plan over the synopsis codes its join
	// keys in (algebra.NewPlanCacheRec): the sample views code each join
	// key once, on first use, and keep the codes as they grow. A clone
	// gets a domain of its own.
	keys *relation.KeyDomain

	// sketches is the optional sketch tier (per-relation AGMS column
	// sketches plus KMV distinct summaries over the FULL relation), built
	// lazily by EnsureSketches or transplanted by Incremental.Snapshot.
	// Guarded by sketchMu so concurrent server requests can share one
	// synopsis; entries are immutable once present (clones share them).
	sketchMu sync.Mutex
	sketches map[string]*relSketches
}

// NewSynopsis creates an empty synopsis.
func NewSynopsis() *Synopsis {
	return &Synopsis{rels: make(map[string]*relSynopsis), keys: relation.NewMemoKeyDomain()}
}

// Relation implements algebra.Catalog, returning the sample relation.
func (s *Synopsis) Relation(name string) (*relation.Relation, bool) {
	rs, ok := s.rels[name]
	if !ok {
		return nil, false
	}
	return rs.sample, true
}

// PopulationSize returns N (tuples) for the named relation.
func (s *Synopsis) PopulationSize(name string) (int, bool) {
	rs, ok := s.rels[name]
	if !ok {
		return 0, false
	}
	return rs.N, true
}

// SampleSize returns n (sampled tuples) for the named relation.
func (s *Synopsis) SampleSize(name string) (int, bool) {
	rs, ok := s.rels[name]
	if !ok {
		return 0, false
	}
	return rs.n, true
}

// Design returns the sampling design of the named relation: pageSize 0
// means tuple-level SRSWOR; otherwise units are pages of that many rows.
func (s *Synopsis) Design(name string) (pageSize int, ok bool) {
	rs, ok := s.rels[name]
	if !ok {
		return 0, false
	}
	return rs.pageSize, true
}

// Bytes estimates the synopsis's resident sample storage. Drawn samples
// are zero-copy views into their base relations, so they count only their
// index vectors plus the join indexes and key code vectors memoized on
// them (relation.Bytes view accounting; at most one index per sample view
// and key column set, one code vector per key column); externally
// supplied samples count their full column storage. The key domain counts
// once.
func (s *Synopsis) Bytes() int {
	total := s.keys.Bytes()
	for _, rs := range s.rels {
		if rs.sample != nil { // a tallied request's sizes hold no sample (tallySizes)
			total += rs.sample.Bytes()
		}
	}
	return total
}

// Names returns the relation names in the synopsis, sorted.
func (s *Synopsis) Names() []string {
	out := make([]string, 0, len(s.rels))
	for n := range s.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AddSample registers an externally obtained uniform tuple-level sample
// for a relation of the given population size. The sample relation's name
// must be the base-relation name the expressions use.
func (s *Synopsis) AddSample(sample *relation.Relation, populationSize int) error {
	if sample.Len() > populationSize {
		return fmt.Errorf("estimator: sample of %q has %d rows > population %d",
			sample.Name(), sample.Len(), populationSize)
	}
	if _, dup := s.rels[sample.Name()]; dup {
		return fmt.Errorf("estimator: relation %q already in synopsis", sample.Name())
	}
	n := sample.Len()
	s.rels[sample.Name()] = &relSynopsis{
		name:   sample.Name(),
		sample: sample,
		n:      n,
		N:      populationSize,
		M:      populationSize,
		m:      n,
	}
	return nil
}

// AddDrawn draws a tuple-level SRSWOR sample of size n from the stored
// relation and registers it. The base relation and sampled positions are
// retained so the sample can later be extended (sequential estimation).
func (s *Synopsis) AddDrawn(base *relation.Relation, n int, rng *rand.Rand) error {
	if n < 0 || n > base.Len() {
		return fmt.Errorf("estimator: sample size %d outside [0, %d] for %q", n, base.Len(), base.Name())
	}
	if _, dup := s.rels[base.Name()]; dup {
		return fmt.Errorf("estimator: relation %q already in synopsis", base.Name())
	}
	rs := &relSynopsis{name: base.Name(), N: base.Len(), M: base.Len(), base: base, distinct: &popDistinct{}}
	rs.addUnits(sampling.WithoutReplacement(rng, base.Len(), n))
	s.rels[base.Name()] = rs
	return nil
}

// AddDrawnPages draws an SRSWOR sample of whole pages: the relation's rows
// are viewed as ⌈N/pageSize⌉ consecutive fixed-size pages (the last may be
// short) and `pages` of them are sampled. Every tuple of a sampled page
// enters the sample — the access pattern of a system that samples disk
// blocks. Estimates from page samples remain unbiased for expressions in
// which each relation occurs once; accuracy depends on how values cluster
// within pages (see the A2 ablation).
func (s *Synopsis) AddDrawnPages(base *relation.Relation, pageSize, pages int, rng *rand.Rand) error {
	if pageSize < 1 {
		return fmt.Errorf("estimator: page size %d < 1 for %q", pageSize, base.Name())
	}
	if _, dup := s.rels[base.Name()]; dup {
		return fmt.Errorf("estimator: relation %q already in synopsis", base.Name())
	}
	M := (base.Len() + pageSize - 1) / pageSize
	if pages < 0 || pages > M {
		return fmt.Errorf("estimator: page count %d outside [0, %d] for %q", pages, M, base.Name())
	}
	rs := &relSynopsis{name: base.Name(), N: base.Len(), M: M, pageSize: pageSize, base: base, distinct: &popDistinct{}}
	rs.addUnits(sampling.WithoutReplacement(rng, M, pages))
	s.rels[base.Name()] = rs
	return nil
}

// AddDrawnStratified draws a stratified tuple sample: every row of the
// stored relation is assigned to a stratum by stratumOf (any int labels),
// the total sample size is allocated proportionally to stratum sizes
// (largest-remainder rounding, with every non-empty stratum getting at
// least min(2, N_h) rows so stratum variances stay estimable), and an
// independent SRSWOR sample is drawn within each stratum.
//
// Stratification is the classical variance-reduction design: when the
// strata are homogeneous with respect to the query (e.g. stratified by the
// selection attribute), the estimator's variance drops toward the
// within-stratum variance. Stratified relations may appear at most once
// per polynomial term (the pattern weights assume exchangeable samples).
func (s *Synopsis) AddDrawnStratified(base *relation.Relation, stratumOf func(relation.Row) int, totalN int, rng *rand.Rand) error {
	if stratumOf == nil {
		return fmt.Errorf("estimator: stratified sampling needs a stratum function")
	}
	if totalN < 0 || totalN > base.Len() {
		return fmt.Errorf("estimator: stratified sample size %d outside [0, %d] for %q", totalN, base.Len(), base.Name())
	}
	if _, dup := s.rels[base.Name()]; dup {
		return fmt.Errorf("estimator: relation %q already in synopsis", base.Name())
	}
	// Bucket rows by stratum label, preserving first-seen label order.
	var labels []int
	rowsByLabel := map[int][]int{}
	base.EachRow(func(i int, row relation.Row) bool {
		l := stratumOf(row)
		if _, seen := rowsByLabel[l]; !seen {
			labels = append(labels, l)
		}
		rowsByLabel[l] = append(rowsByLabel[l], i)
		return true
	})
	if len(labels) == 0 {
		return s.AddSample(relation.New(base.Name(), base.Schema()), 0)
	}
	sizes := make([]int, len(labels))
	for i, l := range labels {
		sizes[i] = len(rowsByLabel[l])
	}
	alloc := sampling.Proportional(sizes, totalN)
	for i := range alloc {
		if minN := 2; alloc[i] < minN {
			if sizes[i] < minN {
				alloc[i] = sizes[i]
			} else {
				alloc[i] = minN
			}
		}
	}
	rs := &relSynopsis{
		name:     base.Name(),
		N:        base.Len(),
		base:     base,
		distinct: &popDistinct{},
	}
	var positions []int
	for i, l := range labels {
		stratumRows := rowsByLabel[l]
		drawn := sampling.WithoutReplacement(rng, len(stratumRows), alloc[i])
		st := stratumInfo{Nh: len(stratumRows)}
		for _, d := range drawn {
			unit := len(positions)
			st.units = append(st.units, unit)
			positions = append(positions, stratumRows[d])
		}
		rs.strata = append(rs.strata, st)
	}
	//lint:ignore viewescape the synopsis IS a retained sample view by design: the capacity clamp snapshots the base at draw time, and bases are append-only
	rs.sample = base.Subset(base.Name(), positions)
	rs.n = rs.sample.Len()
	rs.m = rs.n
	rs.M = rs.N
	s.rels[base.Name()] = rs
	return nil
}

// Draw builds a synopsis sampling the given fraction (0, 1] of tuples from
// every stored relation, with a minimum sample size of min(minSize, |R|).
func Draw(rels []*relation.Relation, fraction float64, minSize int, rng *rand.Rand) (*Synopsis, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("estimator: sampling fraction %v outside (0, 1]", fraction)
	}
	s := NewSynopsis()
	for _, r := range rels {
		n := int(fraction * float64(r.Len()))
		if n < minSize {
			n = minSize
		}
		if n > r.Len() {
			n = r.Len()
		}
		if err := s.AddDrawn(r, n, rng); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Clone returns an independently extendable copy of the synopsis: the two
// share the (immutable) base relations and current samples, but
// ExtendSample on one never changes what the other sees. A sequential or
// deadline request whose rounds must hold the rows they draw grows a
// clone it makes itself, so concurrent requests over one synopsis neither
// race nor perturb each other's estimates.
//
// The clone codes its join keys in a key domain of its own, so concurrent
// requests never contend for one domain's lock, and it reads its samples
// through aliases of the shared views (relation.Relation.Alias), so the
// code vectors it builds are dropped with it instead of piling up on the
// views every request shares.
func (s *Synopsis) Clone() *Synopsis {
	out := NewSynopsis()
	for name, rs := range s.rels {
		cp := *rs
		// Extension appends to units and unitStart and advances the draw
		// state; clipped headers make the clone's first append copy, and
		// the clone makes a draw state of its own, so those writes stay
		// private.
		// Sample views are never mutated, only replaced (Extend), so
		// sharing their rows and storage is safe.
		//lint:ignore viewescape the clone retains an alias of the synopsis's retained sample view: same rows, same pinned storage
		cp.sample = rs.sample.Alias()
		cp.units = slices.Clip(rs.units)
		cp.unitStart = slices.Clip(rs.unitStart)
		cp.draw = nil
		out.rels[name] = &cp
	}
	// Built sketches are immutable; the clone shares them by reference.
	s.cloneSketchRefs(out)
	return out
}

// tallySizes returns what a fully tallied sequential or deadline request
// estimates over (rounds): for each of rels, the entry's population and
// sample sizes, its base and a draw state of its own seeded with its
// units, and no sample, unit list or code vector. The request's draws
// raise the entries' sizes while its tallies hold every row drawn; s is
// only read. Each relation must be a plain tuple sample drawn from a
// stored base (tallyOnly).
func (s *Synopsis) tallySizes(rels []string) *Synopsis {
	out := NewSynopsis()
	for _, rel := range rels {
		rs := s.rels[rel]
		out.rels[rel] = &relSynopsis{
			name: rel, n: rs.n, N: rs.N, M: rs.M, m: rs.m,
			base: rs.base, draw: sampling.NewDraw(rs.M, rs.units), distinct: rs.distinct,
		}
	}
	return out
}

// ExtendSample enlarges the sample of the named relation by add more
// sampling units (tuples under the tuple design, pages under the page
// design), drawn SRSWOR from the unsampled remainder; the combined sample
// is again SRSWOR. The new units' rows are appended to the sample in draw
// order, and the sample's memoized join indexes grow by those rows only.
// It fails if the synopsis was not drawn from a stored relation.
func (s *Synopsis) ExtendSample(name string, add int, rng *rand.Rand) error {
	rs, ok := s.rels[name]
	if !ok {
		return fmt.Errorf("estimator: no relation %q in synopsis", name)
	}
	if rs.base == nil {
		return fmt.Errorf("estimator: sample of %q was not drawn from a stored relation; cannot extend", name)
	}
	if rs.stratified() {
		return fmt.Errorf("estimator: stratified sample of %q cannot be extended; redraw with a larger allocation", name)
	}
	if add < 0 || rs.m+add > rs.M {
		return fmt.Errorf("estimator: cannot extend sample of %q by %d units (m=%d, M=%d)", name, add, rs.m, rs.M)
	}
	if add == 0 {
		return nil
	}
	if rs.draw == nil {
		rs.draw = sampling.NewDraw(rs.M, rs.units)
	}
	rs.reserve(add)
	for _, id := range rs.draw.Next(rng, add) {
		rs.units = append(rs.units, int(id))
	}
	rs.admit(add)
	return nil
}

// split draws the relation's split-sample groups: each sampling unit's
// group in [0, g), which its rows inherit (sampling.SplitLabels: per
// stratum for a stratified sample, so every group is a valid smaller
// sample of the same design). The draw depends only on rng.
func (rs *relSynopsis) split(rng *rand.Rand, g int) *relGroups {
	var strata [][]int
	for _, st := range rs.strata {
		strata = append(strata, st.units)
	}
	unitLabel := sampling.SplitLabels(rng, rs.m, g, strata)
	gr := &relGroups{rows: make([]int32, rs.n), n: make([]int, g), m: make([]int, g)}
	for u, l := range unitLabel {
		lo, hi := rs.unitRows(u)
		gr.m[l]++
		gr.n[l] += hi - lo
		for row := lo; row < hi; row++ {
			gr.rows[row] = l
		}
	}
	if rs.stratified() {
		weights := make([]float64, rs.n)
		perGroup := make([]int, g)
		for _, st := range rs.strata {
			clear(perGroup)
			for _, u := range st.units {
				perGroup[unitLabel[u]]++
			}
			for _, u := range st.units { // a stratified unit is a row
				weights[u] = float64(st.Nh) / float64(perGroup[unitLabel[u]])
			}
		}
		gr.rowWeight = func(row int) float64 { return weights[row] }
	}
	return gr
}
