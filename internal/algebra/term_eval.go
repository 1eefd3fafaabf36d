package algebra

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"relest/internal/obs"
	"relest/internal/parallel"
	"relest/internal/relation"
)

// This file evaluates counting-polynomial terms over concrete relation
// instances. The same machinery serves two callers:
//
//   - the exact path: instances are the full base relations and every
//     satisfying assignment counts 1, reproducing COUNT(E);
//   - the estimation path: instances are per-relation SRSWOR samples and
//     each satisfying assignment is weighted by the falling-factorial
//     pattern weight supplied by the estimator.
//
// Evaluation plans a greedy join order over the term's occurrences, applies
// pushed-down local predicates first (as list filters over the typed column
// vectors), uses composite-key hash indexes for every equality constraint
// that connects a new occurrence to already-bound ones, probing them with
// the bound rows' cells read in place, and enumerates assignments
// recursively. In pure counting mode, occurrences that are unconstrained
// from some point on are folded into a single multiplicative factor
// instead of being enumerated, and the last enumerated step, when no
// residual predicate waits on it, counts its candidates without visiting
// them. A two-step keyed plan is counted per bucket (PairMoments) — or
// summed, with a weight on one occurrence's rows — and the same tally
// yields the sums of squares the COUNT and SUM closed forms need; the
// moment pass (Marginals) derives every row's partner count from the same
// per-bucket counts. When the plan is compiled with a key domain and
// joins on one column of two sample views, its buckets are the key codes
// of that domain (relation.KeyDomain): the tally reads two code vectors,
// and no hash index is built or probed.
//
// Compilation is separated from evaluation: Prepare (or a PlanCache)
// produces an immutable PreparedTerm whose candidate lists are built once
// and whose hash indexes are built once, on first use (whole-view indexes
// once per sample view, see compile), and every evaluation carries its own
// scratch state (termEval), so one plan can serve any number of concurrent
// evaluations. Split-sample
// replicates are not compiled: PreparedTerm.Split restricts a compiled
// plan to each replicate's rows by partitioning its candidate lists and
// indexes.

// Instances carries one relation instance per occurrence of a term,
// positionally aligned with Term.Occs. All occurrences of the same base
// relation must reference the same instance for pattern weights to be
// meaningful.
type Instances []*relation.Relation

// BindInstances builds the per-occurrence instance list for a term by
// looking each occurrence's relation up in the catalog.
func BindInstances(t *Term, cat Catalog) (Instances, error) {
	inst := make(Instances, len(t.Occs))
	for i, o := range t.Occs {
		r, ok := cat.Relation(o.RelName)
		if !ok {
			return nil, fmt.Errorf("algebra: no relation %q in catalog", o.RelName)
		}
		if !r.Schema().EqualLayout(o.Schema) {
			return nil, fmt.Errorf("algebra: relation %q layout %s does not match occurrence schema %s",
				o.RelName, r.Schema(), o.Schema)
		}
		inst[i] = r
	}
	return inst, nil
}

// termPlan is the compiled evaluation order for one term over fixed
// instances.
//
// Plan reuse rules: a plan is immutable once compile returns — all mutable
// per-evaluation state (the assignment under construction and the
// predicate-row scratch) lives in termEval — so a single plan may be shared
// freely across goroutines. A cached plan remains valid exactly as long as
// (a) the Term's constraint structure is unchanged and (b) every bound
// instance still holds the same rows it held at compile time. Swapping an
// instance for a different *relation.Relation naturally misses the cache
// (keys include instance identity); relations are not mutated in place
// behind a cached plan — a cache is scoped to one evaluation. A step whose
// candidate list is the whole instance takes the instance's shared index
// (relation.SharedIndex): on a sample view that index is memoized with the
// view and read by every plan over it, which is safe because indexes are
// immutable too.
type termPlan struct {
	term *Term
	inst Instances

	order []int   // plan position → occurrence index
	pos   []int   // occurrence index → plan position
	cand  [][]int // per occurrence: candidate rows after local preds and intra-occurrence equalities

	steps []planStep

	// enumUpto is the first plan position of the independent tail: counting
	// enumerates steps [0, enumUpto) and multiplies by tailFactor, the
	// product of the tail occurrences' candidate counts.
	enumUpto   int
	tailFactor float64

	// maxPredOccs sizes the per-evaluation row scratch for residual
	// predicates.
	maxPredOccs int

	// codes is set on a plan of the Pairs shape whose join it counts by
	// key code (codeKeys); nil means the join is probed through the
	// second step's hash index.
	codes *pairCodes
}

// pairCodes is a coded Pairs plan's join: the codes of the scanned (first
// step's) occurrence's key cells and of the indexed (second step's)
// occurrence's, both by instance row, and the number of the second step's
// candidates holding each code. A code is a bucket: the tally counts
// scanned rows per code, and the bucket's size is size[code].
type pairCodes struct {
	scan, keys []int32
	size       []int32
}

type planStep struct {
	occ int
	// The composite hash index for this step: the occurrence's candidate
	// rows are indexed on keyCols (typed composite keys, see
	// relation.Index) and probed in place with the cells probe names,
	// aligned with keyCols: each reads an already-bound occurrence's
	// instance at the row the assignment holds for it (Slot is the
	// occurrence index). Empty keyCols means a full scan of the candidate
	// list, and a nil index.
	keyCols []int
	probe   []relation.KeyRef
	index   *stepIndex
	// preds to evaluate once this step's occurrence is bound.
	preds []TermPred
	// independent marks a tail step with no constraints at or after it;
	// counting mode multiplies by len(cand) instead of recursing.
	independent bool
}

// stepIndex is a keyed step's hash index, built on first use: a coded
// pair plan never asks for it, so it never builds one, and any evaluation
// that probes (enumeration, Count, a hashed tally, Split) builds it once
// for every caller of the plan.
type stepIndex struct {
	once  sync.Once
	build func() *relation.Index
	ix    *relation.Index
}

// get returns the index, building it on the first call.
func (s *stepIndex) get() *relation.Index {
	s.once.Do(func() {
		s.ix = s.build()
		s.build = nil
	})
	return s.ix
}

// compile builds the evaluation plan over the instances: the candidate
// lists, then planOver, then, given a key domain, the key codes of a pair
// plan (codeKeys). A candidate list that keeps every row indexes the whole
// instance, which a sample view memoizes across plans (SharedIndex); a
// filtered list is indexed here.
func compile(t *Term, inst Instances, dom *relation.KeyDomain) (*termPlan, error) {
	if len(inst) != len(t.Occs) {
		return nil, fmt.Errorf("algebra: term has %d occurrences, got %d instances", len(t.Occs), len(inst))
	}
	for i, r := range inst {
		if !r.Schema().EqualLayout(t.Occs[i].Schema) {
			return nil, fmt.Errorf("algebra: instance %d layout %s does not match occurrence schema %s",
				i, r.Schema(), t.Occs[i].Schema)
		}
	}
	cand := candidates(t, inst)
	p := planOver(t, inst, cand, func(occ int, keyCols []int) *relation.Index {
		r := inst[occ]
		if len(cand[occ]) == r.Len() {
			return r.SharedIndex(keyCols)
		}
		return relation.BuildIndexRows(r, keyCols, cand[occ])
	})
	if dom != nil {
		p.codeKeys(dom)
	}
	return p, nil
}

// codeKeys makes a plan of the Pairs shape whose join is on a single
// column count that join by key code: when both occurrences' instances
// have code vectors in dom (sample views do, base relations do not), it
// records them and the per-code size of the second step's candidates. A
// composite key keeps the hash index.
func (p *termPlan) codeKeys(dom *relation.KeyDomain) {
	if !p.pairs() || len(p.steps[1].keyCols) != 1 {
		return
	}
	second := &p.steps[1]
	kr := second.probe[0]
	scan := kr.Rel.KeyCodes(kr.Col, dom)
	keys := p.inst[second.occ].KeyCodes(second.keyCols[0], dom)
	if scan == nil || keys == nil {
		return
	}
	size := make([]int32, dom.Len()) // every code either vector holds is below it
	for _, row := range p.cand[second.occ] {
		size[keys[row]]++
	}
	p.codes = &pairCodes{scan: scan, keys: keys, size: size}
}

// candidates returns every occurrence's candidate rows: the instance rows,
// ascending, that pass its local predicates and intra-occurrence
// equalities.
func candidates(t *Term, inst Instances) [][]int {
	intraEqs := make([][]EqCol, len(t.Occs))
	for _, eq := range t.Eqs {
		if eq.A.Occ == eq.B.Occ {
			intraEqs[eq.A.Occ] = append(intraEqs[eq.A.Occ], eq)
		}
	}
	cand := make([][]int, len(t.Occs))
	for i, r := range inst {
		rows := make([]int, r.Len())
		for ri := range rows {
			rows[ri] = ri
		}
		for _, lp := range t.Occs[i].LocalPreds {
			rows = lp(r, rows)
		}
		for _, eq := range intraEqs[i] {
			rows = r.FilterEqual(rows, eq.A.Col, eq.B.Col)
		}
		cand[i] = rows
	}
	return cand
}

// planOver plans the term over fixed candidate lists: the greedy join
// order chosen from their sizes, the constraints assigned to steps, each
// keyed step's index from indexFor(occurrence, key columns) on first use
// (stepIndex), and the folded tail. Candidate lists must be ascending, so
// bucket rows keep ascending (enumeration) order. compile and Split both
// plan through it, so a replicate plan orders its steps exactly as a
// compile over the replicate's own rows would.
func planOver(t *Term, inst Instances, cand [][]int, indexFor func(occ int, keyCols []int) *relation.Index) *termPlan {
	m := len(t.Occs)
	p := &termPlan{term: t, inst: inst, cand: cand}
	var crossEqs []EqCol
	for _, eq := range t.Eqs {
		if eq.A.Occ != eq.B.Occ {
			crossEqs = append(crossEqs, eq)
		}
	}

	// Greedy order: smallest candidate list first, then prefer occurrences
	// connected by an equality to the bound set (so the step gets an
	// index), breaking ties by candidate count.
	bound := make([]bool, m)
	p.order = make([]int, 0, m)
	p.pos = make([]int, m)
	connected := func(occ int) bool {
		for _, eq := range crossEqs {
			if eq.A.Occ == occ && bound[eq.B.Occ] {
				return true
			}
			if eq.B.Occ == occ && bound[eq.A.Occ] {
				return true
			}
		}
		return false
	}
	for k := 0; k < m; k++ {
		best := -1
		bestConn := false
		for i := 0; i < m; i++ {
			if bound[i] {
				continue
			}
			conn := k > 0 && connected(i)
			if best < 0 ||
				(conn && !bestConn) ||
				(conn == bestConn && len(p.cand[i]) < len(p.cand[best])) {
				best, bestConn = i, conn
			}
		}
		bound[best] = true
		p.pos[best] = k
		p.order = append(p.order, best)
	}

	// Assign constraints to the plan step at which they become checkable.
	p.steps = make([]planStep, m)
	for k, occ := range p.order {
		p.steps[k].occ = occ
	}
	for _, eq := range crossEqs {
		// The equality is enforced at the later of its two occurrences.
		a, b := eq.A, eq.B
		if p.pos[a.Occ] < p.pos[b.Occ] {
			a, b = b, a
		}
		// a is bound later: index a's occurrence on a.Col, probe with b.
		st := &p.steps[p.pos[a.Occ]]
		st.keyCols = append(st.keyCols, a.Col)
		st.probe = append(st.probe, relation.KeyRef{Rel: inst[b.Occ], Slot: b.Occ, Col: b.Col})
	}
	for _, pr := range t.Preds {
		last := 0
		for _, occ := range pr.Occs {
			last = max(last, p.pos[occ])
		}
		p.steps[last].preds = append(p.steps[last].preds, pr)
		p.maxPredOccs = max(p.maxPredOccs, len(pr.Occs))
	}

	// Index the keyed steps and mark the independent tail.
	for k := range p.steps {
		st := &p.steps[k]
		if len(st.keyCols) > 0 {
			occ, keyCols := st.occ, st.keyCols
			st.index = &stepIndex{build: func() *relation.Index { return indexFor(occ, keyCols) }}
		}
	}
	p.enumUpto = m
	p.tailFactor = 1.0
	for k := m - 1; k >= 0; k-- {
		st := &p.steps[k]
		if len(st.keyCols) == 0 && len(st.preds) == 0 {
			st.independent = true
			p.tailFactor *= float64(len(p.cand[st.occ]))
			p.enumUpto = k
		} else {
			break
		}
	}
	return p
}

// termEval is the per-evaluation scratch over an immutable plan: the
// assignment under construction (which the join probe reads its key rows
// from) and the rows residual predicates read. Hoisting these out of the
// innermost enumeration loops removes the per-check allocations, and
// keeping them off the plan lets concurrent evaluations share one plan
// safely.
type termEval struct {
	p      *termPlan
	assign []int
	rows   []relation.Row
}

func (p *termPlan) newEval() *termEval {
	return &termEval{
		p:      p,
		assign: make([]int, len(p.steps)),
		rows:   make([]relation.Row, p.maxPredOccs),
	}
}

// candidatesAt returns the rows compatible with the bound prefix at step k:
// the step's candidate list, or the index bucket whose key equals the
// bound cells (typed, in place, allocation-free).
func (ev *termEval) candidatesAt(k int) []int {
	st := &ev.p.steps[k]
	if st.index == nil {
		return ev.p.cand[st.occ]
	}
	return st.index.get().Lookup(st.probe, ev.assign)
}

// predsHold evaluates the step's residual predicates on the assignment.
func (ev *termEval) predsHold(k int) bool {
	p := ev.p
	for _, pr := range p.steps[k].preds {
		rows := ev.rows[:len(pr.Occs)]
		for i, occ := range pr.Occs {
			rows[i] = p.inst[occ].Row(ev.assign[occ])
		}
		if !pr.Eval(rows) {
			return false
		}
	}
	return true
}

// Partitioned evaluation: the first enumerated step's candidate list is
// split into a fixed number of contiguous chunks so independent workers can
// evaluate chunks concurrently. The chunk count is a function of the plan
// alone — never of the worker count — so summing per-chunk results in chunk
// order yields bit-identical floats no matter how many workers ran them.
const (
	// partitionMinRows is the first-step candidate count below which a term
	// is evaluated in a single part (small terms keep the exact historical
	// summation order; partition overhead isn't worth it anyway).
	partitionMinRows = 4096
	// partitionParts is the fixed chunk count for partitioned terms.
	partitionParts = 16
)

// PreparedTerm is a compiled, reusable evaluation plan for one term over
// fixed instances. It is immutable and safe for concurrent use; obtain one
// from Prepare or a PlanCache.
type PreparedTerm struct {
	p *termPlan
}

// Prepare compiles an evaluation plan for the term over the instances. Its
// joins are probed through hash indexes; a PlanCache with a key domain
// (NewPlanCacheRec) compiles plans that count a single-column pair join by
// key code instead.
func Prepare(t *Term, inst Instances) (*PreparedTerm, error) {
	return prepare(t, inst, nil)
}

// prepare compiles the plan, coding its pair join's keys in dom when dom
// is non-nil (codeKeys).
func prepare(t *Term, inst Instances, dom *relation.KeyDomain) (*PreparedTerm, error) {
	p, err := compile(t, inst, dom)
	if err != nil {
		return nil, err
	}
	return &PreparedTerm{p: p}, nil
}

// Term returns the term this plan evaluates.
func (pt *PreparedTerm) Term() *Term { return pt.p.term }

// Instances returns the instances the plan was compiled over.
func (pt *PreparedTerm) Instances() Instances { return pt.p.inst }

// Parts returns the deterministic partition count for this plan: CountPart
// and EnumeratePart accept parts in [0, Parts()). The count depends only on
// the plan, so partitioned reductions are reproducible across worker
// counts.
func (pt *PreparedTerm) Parts() int {
	p := pt.p
	if p.enumUpto == 0 {
		return 1 // pure multiplicative tail: nothing to enumerate
	}
	if len(p.cand[p.steps[0].occ]) < partitionMinRows {
		return 1
	}
	return partitionParts
}

// Partition assigns every row of a term's sample instances to one of g
// groups — the replicate split of split-sample variance — and memoizes
// what Split derives from it, so terms sharing an instance share its
// partitioned candidate lists and split indexes. A Partition is not safe
// for concurrent use; the plans Split derives from it are.
type Partition struct {
	g      int
	labels map[*relation.Relation][]int32

	cands  map[candKey][][]int
	built  []builtIndex
	splits map[*relation.Index][]*relation.Index
}

// candKey identifies a candidate list: the whole instance or an empty list
// (first nil, told apart by n), or a filtered list by its backing array.
type candKey struct {
	rel   *relation.Relation
	first *int
	n     int
}

// builtIndex is a full-candidate index no full plan held, built once for a
// replicate order the full plan does not share.
type builtIndex struct {
	cand candKey
	cols []int
	ix   *relation.Index
}

// NewPartition partitions instance rows into g groups by label:
// labels[r][row] ∈ [0, g) is the group of row `row` of instance r, and
// every instance a split plan reads must be labelled.
func NewPartition(g int, labels map[*relation.Relation][]int32) *Partition {
	return &Partition{
		g:      g,
		labels: labels,
		cands:  make(map[candKey][][]int),
		splits: make(map[*relation.Index][]*relation.Index),
	}
}

func keyOf(r *relation.Relation, cand []int) candKey {
	if len(cand) == 0 || len(cand) == r.Len() {
		return candKey{rel: r, n: len(cand)}
	}
	return candKey{rel: r, first: &cand[0], n: len(cand)}
}

// candidates partitions a candidate list by label in one pass: part l
// keeps the rows labelled l, ascending.
func (pa *Partition) candidates(r *relation.Relation, cand []int) [][]int {
	if len(cand) == 0 {
		return make([][]int, pa.g)
	}
	key := keyOf(r, cand)
	if parts, ok := pa.cands[key]; ok {
		return parts
	}
	label := pa.labels[r]
	count := make([]int, pa.g)
	for _, row := range cand {
		count[label[row]]++
	}
	backing := make([]int, len(cand))
	parts := make([][]int, pa.g)
	off := 0
	for l, c := range count {
		parts[l] = backing[off : off : off+c]
		off += c
	}
	for _, row := range cand {
		l := label[row]
		parts[l] = append(parts[l], row)
	}
	pa.cands[key] = parts
	return parts
}

// index returns the g parts of the full-candidate index of occurrence occ
// of plan p on keyCols: the split of p's own index when a step of p holds
// it, otherwise of one built here once.
func (pa *Partition) index(p *termPlan, occ int, keyCols []int) []*relation.Index {
	var full *relation.Index
	for k := range p.steps {
		if st := &p.steps[k]; st.occ == occ && st.index != nil && slices.Equal(st.keyCols, keyCols) {
			full = st.index.get()
			break
		}
	}
	if full == nil {
		r, cand := p.inst[occ], p.cand[occ]
		key := keyOf(r, cand)
		for _, b := range pa.built {
			if b.cand == key && slices.Equal(b.cols, keyCols) {
				full = b.ix
				break
			}
		}
		if full == nil {
			full = relation.BuildIndexRows(r, keyCols, cand)
			pa.built = append(pa.built, builtIndex{cand: key, cols: keyCols, ix: full})
		}
	}
	parts, ok := pa.splits[full]
	if !ok {
		parts = full.Split(pa.labels[p.inst[occ]], pa.g)
		pa.splits[full] = parts
	}
	return parts
}

// Split derives the replicate plans of a split-sample variance pass: plan l
// is this plan restricted to the instance rows labelled l. It reads the
// same instances, so it reports and enumerates full-instance row
// positions. Every design lays a replicate's rows out in ascending
// full-sample order, and candidate lists and index buckets are ascending
// too, so plan l enumerates exactly the assignments a plan compiled over
// the group's sub-instances (ascending Subset views) would, in the same
// order, reading the same cells — every count and sum is bit-identical.
//
// Each candidate list is partitioned in one pass; each keyed step's index
// is a part of the full-candidate index for its occurrence and key
// columns (relation.Index.Split), never a rebuild, taken here because a
// Partition is not safe for concurrent use; and the greedy order is
// re-chosen from the replicate's own candidate counts by the same planOver
// that compile uses, so a replicate whose order differs from this plan's
// is planned exactly as an independent compile would plan it. Replicate
// plans probe their hash indexes: they are never coded.
func (pt *PreparedTerm) Split(pa *Partition) []*PreparedTerm {
	p := pt.p
	cand := make([][][]int, pa.g) // group → occurrence → rows
	for l := range cand {
		cand[l] = make([][]int, len(p.cand))
	}
	for occ, rows := range p.cand {
		for l, part := range pa.candidates(p.inst[occ], rows) {
			cand[l][occ] = part
		}
	}
	out := make([]*PreparedTerm, pa.g)
	for l := range out {
		rp := planOver(p.term, p.inst, cand[l], func(occ int, keyCols []int) *relation.Index {
			return pa.index(p, occ, keyCols)[l]
		})
		for k := range rp.steps {
			if st := &rp.steps[k]; st.index != nil {
				st.index.get()
			}
		}
		out[l] = &PreparedTerm{p: rp}
	}
	return out
}

// chunk returns the [lo, hi) bounds of chunk part of parts over n rows.
func chunk(n, part, parts int) (int, int) {
	return n * part / parts, n * (part + 1) / parts
}

// Count returns the number of occurrence-row assignments satisfying the
// term, as a float64 (counts can exceed int64 for product-heavy terms).
// Unconstrained tail occurrences are folded multiplicatively. Count is
// defined as the part-ordered sum of CountPart over Parts() chunks, so it
// matches any parallel part-wise evaluation bit for bit.
func (pt *PreparedTerm) Count() float64 {
	parts := pt.Parts()
	total := 0.0
	for part := 0; part < parts; part++ {
		total += pt.CountPart(part, parts)
	}
	return total
}

// CountPart counts the satisfying assignments whose first-step candidate
// lies in chunk `part` of `parts` (see Parts). The last enumerated step
// contributes the length of its candidate list when it has no residual
// predicate to check: the same float the per-candidate sum of 1s would
// reach, exactly, since every partial count is an integer below 2^53.
func (pt *PreparedTerm) CountPart(part, parts int) float64 {
	p := pt.p
	//lint:ignore floateq exact sentinel: a zero tail factor means an empty folded tail, so the term contributes nothing
	if p.tailFactor == 0 {
		return 0
	}
	if p.enumUpto == 0 {
		if part != 0 {
			return 0
		}
		return p.tailFactor
	}
	ev := p.newEval()
	last := p.enumUpto - 1
	countLast := len(p.steps[last].preds) == 0
	var rec func(k int) float64
	rec = func(k int) float64 {
		if k == p.enumUpto {
			return 1
		}
		st := &p.steps[k]
		cands := ev.candidatesAt(k)
		if k == 0 {
			lo, hi := chunk(len(cands), part, parts)
			cands = cands[lo:hi]
		}
		if k == last && countLast {
			return float64(len(cands))
		}
		total := 0.0
		for _, ri := range cands {
			ev.assign[st.occ] = ri
			if !ev.predsHold(k) {
				continue
			}
			total += rec(k + 1)
		}
		return total
	}
	return rec(0) * p.tailFactor
}

// Enumerate invokes visit for every satisfying assignment (rows positionally
// aligned with Term.Occs). visit must not retain the slice. Enumeration
// stops early if visit returns false. Used by the pattern-weighted
// estimator, whose weights depend on the full assignment.
func (pt *PreparedTerm) Enumerate(visit func(rows []int) bool) {
	pt.EnumeratePart(0, 1, visit)
}

// EnumeratePart enumerates the satisfying assignments whose first-step
// candidate lies in chunk `part` of `parts` (see Parts). Distinct parts
// visit disjoint assignment sets whose union is the full enumeration, which
// is what lets workers enumerate one term concurrently with per-part
// accumulators.
func (pt *PreparedTerm) EnumeratePart(part, parts int, visit func(rows []int) bool) {
	pt.p.enumerate(part, parts, len(pt.p.steps), visit)
}

// enumerate is EnumeratePart over the plan's first upto steps: visit sees
// every satisfying assignment of those steps' occurrences, and the rows it
// holds for the other occurrences are meaningless.
func (p *termPlan) enumerate(part, parts, upto int, visit func(rows []int) bool) {
	ev := p.newEval()
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == upto {
			return visit(ev.assign)
		}
		st := &p.steps[k]
		cands := ev.candidatesAt(k)
		if k == 0 {
			lo, hi := chunk(len(cands), part, parts)
			cands = cands[lo:hi]
		}
		for _, ri := range cands {
			ev.assign[st.occ] = ri
			if !ev.predsHold(k) {
				continue
			}
			if !rec(k + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// Marginals is a term's moment pass: the number of satisfying assignments
// and, per occurrence, how many of them bind each instance row — the
// per-row marginals every COUNT variance form is a sum over.
type Marginals struct {
	// Total is the number of satisfying assignments, bit-identical to
	// Count.
	Total float64
	// Rows[occ][row] is the number of satisfying assignments that bind
	// occurrence occ to instance row `row` (zero for a row that is not a
	// candidate); each vector is as long as the occurrence's instance.
	Rows [][]float64
}

// Factorizes reports whether Marginals counts per bucket instead of
// enumerating: the plan enumerates at most one step, or has the Pairs
// shape.
func (pt *PreparedTerm) Factorizes() bool {
	return pt.p.enumUpto <= 1 || pt.Pairs()
}

// Pairs reports whether the plan enumerates exactly two steps and the
// second is keyed with no residual predicate to check. Every equi-join of
// two occurrences has this shape, with any σ pushed into the candidate
// lists and any unconstrained tail folded; PairMoments counts it per
// bucket.
func (pt *PreparedTerm) Pairs() bool { return pt.p.pairs() }

func (p *termPlan) pairs() bool {
	return p.enumUpto == 2 && len(p.steps[1].keyCols) > 0 && len(p.steps[1].preds) == 0
}

// Coded reports whether the plan counts its pair join by key code
// (PairMoments and Marginals read code vectors and never probe a hash
// index) rather than through the second step's index.
func (pt *PreparedTerm) Coded() bool { return pt.p.codes != nil }

// Enumerated reports whether the plan enumerates occurrence occ, rather
// than folding it into the tail's factor: only an enumerated occurrence
// can carry a PairMoments row weight.
func (pt *PreparedTerm) Enumerated(occ int) bool {
	return pt.p.pos[occ] < pt.p.enumUpto
}

// RowWeight weights the rows of one occurrence in a bucket tally: W(row)
// is the weight of instance row `row` of occurrence Occ. W may be called
// concurrently and must depend on the row alone.
type RowWeight struct {
	Occ int
	W   func(row int) float64
}

// PairMoments is the moment pass of a plan with the Pairs shape, read off
// its bucket tally: the scanned rows (first-step candidates) that probe
// bucket k of the second step's index have weights summing to A_k, with
// squares summing to Qa_k, and the bucket's own rows have B_k and Qb_k.
// An unweighted side has its row count for both, so a COUNT has a_k and
// b_k. These are GUS's keyed group sums for two relations; every COUNT
// and SUM variance form of a two-occurrence join is a function of them.
type PairMoments struct {
	// Total is T = Σ_k A_k·B_k times the folded tail's factor. Unweighted,
	// it is summed in Count's part order: bit-identical to Count.
	Total float64
	// SumY2 is Σ_k Qa_k·Qb_k, the tail left out: the sum over enumerated
	// pairs of the squared pair weight, which is T itself when no side is
	// weighted.
	SumY2 float64
	// SumSq[occ] is Σ over occurrence occ's rows of the squared weight of
	// the enumerated pairs binding the row, the tail left out:
	// Σ_k Qa_k·B_k² for the scanned occurrence, Σ_k Qb_k·A_k² for the
	// indexed one, zero for folded occurrences. Unweighted, for a
	// two-occurrence term it is the sum of squares of Marginals().Rows[occ].
	SumSq []float64
}

// PairMoments counts a plan with the Pairs shape per bucket, weighting the
// rows of w's occurrence by w (nil counts). It returns the weighted
// moments and, from the same probes, the unweighted ones (counts; pm
// itself when w is nil). w's occurrence must be one of the two enumerated
// ones.
//
// The parts (Parts) fan out over up to workers goroutines. Each scanned
// row costs one probe, or one code read on a coded plan, whose buckets
// are key codes (Coded), and the sums run over the buckets the scan
// touched; no assignment is visited. Counting keeps one tally per worker,
// merged by integer addition: every partial sum is an integer below 2^53,
// so Total equals Count and SumSq the sums over Marginals exactly, in any
// order. A weighted pass keeps one tally per part and merges them in part
// order, and sums over the buckets in the order the scan first touched
// them, so its float sums have the same bits for every worker count.
func (pt *PreparedTerm) PairMoments(workers int, w *RowWeight) (pm, counts PairMoments) {
	p := pt.p
	first, second := &p.steps[0], &p.steps[1]
	counts = PairMoments{SumSq: make([]float64, len(p.inst))}
	pm = counts
	var scanW, indexW func(row int) float64
	if w != nil {
		pm.SumSq = make([]float64, len(p.inst))
		switch w.Occ {
		case first.occ:
			scanW = w.W
		case second.occ:
			indexW = w.W
		default:
			panic(fmt.Sprintf("algebra: PairMoments weight on occurrence %d, which the plan does not enumerate", w.Occ))
		}
	}
	//lint:ignore floateq exact sentinel: a zero tail factor means an empty folded tail, so the term has no assignments (Count returns 0 without probing)
	if p.tailFactor == 0 {
		return pm, counts
	}
	parts := pt.Parts()
	workers = min(max(workers, 1), parts)
	pairs := make([]int, parts)
	tallies := make([]*tally, workers)
	if w != nil {
		tallies = make([]*tally, parts)
	}
	buckets, bucketLen := p.buckets()
	parallel.For(workers, workers, func(wk int) {
		var t *tally
		for part := wk; part < parts; part += workers {
			if w != nil {
				t = newTally(buckets, scanW != nil)
				tallies[part] = t
			} else if t == nil {
				t = newTally(buckets, false)
				tallies[wk] = t
			}
			pairs[part] = p.scanPart(part, parts, t, nil, scanW)
		}
	})
	for _, n := range pairs {
		counts.Total += float64(n) * p.tailFactor
	}
	a := tallies[0]
	for _, t := range tallies[1:] {
		a.merge(t)
		t.release()
	}
	// A coded plan sums the indexed side's weights per code over its
	// candidates, ascending: each code's rows in the order the hashed
	// bucket lists them, so every sum has the bits a bucket's would.
	var codeB, codeQb []float64
	if indexW != nil && p.codes != nil {
		codeB, codeQb = make([]float64, buckets), make([]float64, buckets)
		for _, row := range p.cand[second.occ] {
			c, x := p.codes.keys[row], indexW(row)
			codeB[c] += x
			codeQb[c] += x * x
		}
	}
	var ca, cb float64 // the counts' SumSq
	var T, y2, sa, sb float64
	for _, k := range a.touched {
		fa, fb := float64(a.count[k]), float64(bucketLen(k))
		counts.SumY2 += fa * fb
		ca += fa * fb * fb
		cb += fb * fa * fa
		if w == nil {
			continue
		}
		A, Qa, B, Qb := fa, fa, fb, fb
		switch {
		case scanW != nil:
			A, Qa = a.sum[k], a.sq[k]
		case codeB != nil:
			B, Qb = codeB[k], codeQb[k]
		default:
			B, Qb = 0, 0
			for _, row := range second.index.get().BucketRows(int(k)) {
				x := indexW(row)
				B += x
				Qb += x * x
			}
		}
		T += A * B
		y2 += Qa * Qb
		sa += Qa * B * B
		sb += Qb * A * A
	}
	a.release()
	counts.SumSq[first.occ], counts.SumSq[second.occ] = ca, cb
	if w == nil {
		return counts, counts
	}
	pm.Total, pm.SumY2 = T*p.tailFactor, y2
	pm.SumSq[first.occ], pm.SumSq[second.occ] = sa, sb
	return pm, counts
}

// buckets returns the number of bucket ids of a Pairs plan's join and the
// size of bucket k: the key codes and the per-code candidate counts of a
// coded plan, else the second step's index buckets.
func (p *termPlan) buckets() (int, func(k int32) int) {
	if c := p.codes; c != nil {
		return len(c.size), func(k int32) int { return int(c.size[k]) }
	}
	ix := p.steps[1].index.get()
	return ix.Buckets(), func(k int32) int { return ix.BucketLen(int(k)) }
}

// tally is a bucket tally's scratch: count[k] scanned rows landed in
// bucket k, and touched lists the buckets with a nonzero count in the
// order they were first touched, so reading and clearing a tally costs
// what the probes touched, not the index's bucket count. A weighted tally
// also sums the scanned rows' weights (sum) and squared weights (sq) per
// bucket. Released tallies are reused (tallyPool), zeroed.
type tally struct {
	count    []int32
	sum, sq  []float64
	weighted bool
	touched  []int32
}

var tallyPool sync.Pool

// newTally returns a zeroed tally over the given number of buckets.
func newTally(buckets int, weighted bool) *tally {
	t, _ := tallyPool.Get().(*tally)
	if t == nil {
		t = &tally{}
	}
	t.count = grown(t.count, buckets)
	t.weighted = weighted
	if weighted {
		t.sum, t.sq = grown(t.sum, buckets), grown(t.sq, buckets)
	}
	return t
}

// grown returns s resliced to length n, reallocated (zeroed) when its
// capacity is short. Every element a tally ever writes is zeroed on
// release, so the reslice holds zeros either way.
func grown[E int32 | float64](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// add adds c to bucket k's count.
func (t *tally) add(k int, c int32) {
	if t.count[k] == 0 {
		t.touched = append(t.touched, int32(k))
	}
	t.count[k] += c
}

// merge adds o's buckets to t's, in o's touched order.
func (t *tally) merge(o *tally) {
	for _, k := range o.touched {
		t.add(int(k), o.count[k])
		if t.weighted {
			t.sum[k] += o.sum[k]
			t.sq[k] += o.sq[k]
		}
	}
}

// release zeroes the touched counts and returns the tally to the pool.
func (t *tally) release() {
	for _, k := range t.touched {
		t.count[k] = 0
		if t.weighted {
			t.sum[k], t.sq[k] = 0, 0
		}
	}
	t.touched = t.touched[:0]
	tallyPool.Put(t)
}

// scanPart is the scan of a factorizable plan's enumerated steps:
// tallyPart on a coded plan, probePart otherwise. Both count the same
// rows into the same buckets in the same order.
func (p *termPlan) scanPart(part, parts int, t *tally, rowOut []float64, w func(row int) float64) int {
	if p.codes != nil {
		return p.tallyPart(part, parts, t, rowOut, w)
	}
	return p.probePart(part, parts, t, rowOut, w)
}

// tallyPart is probePart on a coded plan: a scanned row's bucket is its
// key code, read from the code vector, and a code the second step's
// candidates do not hold is an empty bucket, which the row does not touch
// (a probe that misses). No hash is computed and no cell is compared.
func (p *termPlan) tallyPart(part, parts int, t *tally, rowOut []float64, w func(row int) float64) int {
	first := &p.steps[0]
	var ev *termEval
	if len(first.preds) > 0 {
		ev = p.newEval()
	}
	scan, size := p.codes.scan, p.codes.size
	cands := p.cand[first.occ]
	lo, hi := chunk(len(cands), part, parts)
	n := 0
	for _, row := range cands[lo:hi] {
		if ev != nil {
			ev.assign[first.occ] = row
			if !ev.predsHold(0) {
				continue
			}
		}
		k := scan[row]
		c := int(size[k])
		if c == 0 {
			continue
		}
		t.add(int(k), 1)
		if w != nil {
			x := w(row)
			t.sum[k] += x
			t.sq[k] += x * x
		}
		if rowOut != nil {
			rowOut[row] = float64(c) * p.tailFactor
		}
		n += c
	}
	return n
}

// probePart is the probe loop of a factorizable plan's enumerated steps:
// it scans chunk part of parts of the first step's candidates and, when a
// second step is enumerated, probes its index with every row that passes
// the first step's residual predicates, adding one to bucket k of t — and,
// when w is non-nil, the row's weight w(row) and its square to the
// bucket's sums — for a row that lands in bucket k. It returns the number
// of prefix assignments the chunk makes (b_k per row landing in bucket k;
// one per passing row when only one step is enumerated) and, when rowOut
// is non-nil, stores every passing row's count times the folded tail's
// factor in rowOut[row].
func (p *termPlan) probePart(part, parts int, t *tally, rowOut []float64, w func(row int) float64) int {
	ev := p.newEval()
	first := &p.steps[0]
	var second *planStep
	if p.enumUpto == 2 {
		second = &p.steps[1]
	}
	var ix *relation.Index
	if second != nil {
		ix = second.index.get()
	}
	cands := p.cand[first.occ]
	lo, hi := chunk(len(cands), part, parts)
	n := 0
	for _, row := range cands[lo:hi] {
		ev.assign[first.occ] = row
		if !ev.predsHold(0) {
			continue
		}
		c := 1
		if second != nil {
			k, _ := ix.LookupBucket(second.probe, ev.assign)
			if k < 0 {
				continue
			}
			t.add(k, 1)
			if w != nil {
				x := w(row)
				t.sum[k] += x
				t.sq[k] += x * x
			}
			c = ix.BucketLen(k)
		}
		if rowOut != nil {
			rowOut[row] = float64(c) * p.tailFactor
		}
		n += c
	}
	return n
}

// Marginals runs the term's moment pass. It visits only the plan's
// enumerated prefix. A plan that Factorizes scans the first step's
// candidates once, probes the second step's index for each or reads its
// key code (scanPart, the loop PairMoments runs), and counts per bucket — a_k scanned rows probe
// bucket k of size b_k, so a scanned row's marginal is b_k, an indexed
// row's is a_k and the total is Σ a_k·b_k — at a cost of O(Σ candidate
// rows), not O(assignments). Any other plan enumerates its prefix
// assignments. A folded tail is never enumerated: it multiplies every
// prefix count by its factor, and each tail candidate's marginal is the
// prefix count times the other tail occurrences' candidate counts.
//
// Every count is an integer below 2^53, so the result equals enumeration
// exactly, and Total is summed in Count's part order, so it equals Count
// bit for bit.
func (pt *PreparedTerm) Marginals() Marginals {
	p := pt.p
	mg := Marginals{Rows: make([][]float64, len(p.inst))}
	for occ, r := range p.inst {
		mg.Rows[occ] = make([]float64, r.Len())
	}
	prefix := 1 // satisfying assignments of the enumerated steps
	switch {
	case p.enumUpto == 0:
		mg.Total = p.tailFactor
	case pt.Factorizes():
		prefix = pt.scanPrefix(&mg)
	default:
		prefix = pt.enumPrefix(&mg)
	}
	// A tail candidate pairs with every prefix assignment and every
	// combination of the other tail occurrences' candidates.
	for k := p.enumUpto; k < len(p.steps); k++ {
		w := float64(prefix)
		for j := p.enumUpto; j < len(p.steps); j++ {
			if j != k {
				w *= float64(len(p.cand[p.steps[j].occ]))
			}
		}
		occ := p.steps[k].occ
		for _, row := range p.cand[occ] {
			mg.Rows[occ][row] = w
		}
	}
	return mg
}

// enumPrefix fills the marginals of a plan's enumerated steps (scaled by
// the folded tail's factor) and its Total by enumerating the prefix
// assignments, and returns their number. Total adds one product per part,
// as Count does.
func (pt *PreparedTerm) enumPrefix(mg *Marginals) int {
	p := pt.p
	prefix := 0
	parts := pt.Parts()
	for part := 0; part < parts; part++ {
		n := 0
		p.enumerate(part, parts, p.enumUpto, func(rows []int) bool {
			for _, occ := range p.order[:p.enumUpto] {
				mg.Rows[occ][rows[occ]] += p.tailFactor
			}
			n++
			return true
		})
		mg.Total += float64(n) * p.tailFactor
		prefix += n
	}
	return prefix
}

// scanPrefix fills the marginals of a factorizable plan's enumerated steps
// (scaled by the folded tail's factor) and its Total, and returns the
// number of prefix assignments. Total adds one product per part, as Count
// does.
func (pt *PreparedTerm) scanPrefix(mg *Marginals) int {
	p := pt.p
	var t *tally // the second step's bucket tally, when there is one
	if p.enumUpto == 2 {
		buckets, _ := p.buckets()
		t = newTally(buckets, false)
		defer t.release()
	}
	prefix := 0
	parts := pt.Parts()
	for part := 0; part < parts; part++ {
		n := p.scanPart(part, parts, t, mg.Rows[p.steps[0].occ], nil)
		mg.Total += float64(n) * p.tailFactor
		prefix += n
	}
	if t == nil {
		return prefix
	}
	second := &p.steps[1]
	rows := mg.Rows[second.occ]
	if p.codes != nil {
		for _, row := range p.cand[second.occ] {
			if a := t.count[p.codes.keys[row]]; a != 0 {
				rows[row] = float64(a) * p.tailFactor
			}
		}
		return prefix
	}
	ix := second.index.get()
	for _, k := range t.touched {
		w := float64(t.count[k]) * p.tailFactor
		for _, row := range ix.BucketRows(int(k)) {
			rows[row] = w
		}
	}
	return prefix
}

// PlanCache caches compiled term plans keyed by (term identity, instance
// identities). One estimate evaluates the same (term, instances) pairs
// several times — the point estimate, the closed-form variance passes, the
// jackknife's moment or enumeration pass and the split-sample pass that
// restricts each plan to its replicates (PreparedTerm.Split) — and the
// cache makes each pair compile exactly once.
// It is safe for concurrent use; concurrent Prepare calls for the same key
// compile once and share the plan.
//
// The cache holds plans for as long as it lives, so callers scope it to an
// evaluation (the estimator builds one engine per top-level call). What
// outlives it is per view, not per plan: whole-view join indexes stay
// memoized on the sample views (relation.SharedIndex), so a later call over
// the same synopsis recompiles its plans but not those indexes.
type PlanCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	rec     obs.Recorder
	// keys, when non-nil, is the key domain the cache's plans code their
	// pair joins in (codeKeys).
	keys *relation.KeyDomain
}

type cacheEntry struct {
	once sync.Once
	pt   *PreparedTerm
	err  error
}

// Plan-compilation metrics: a Prepare that finds no entry compiles a plan
// (built); one that finds an entry shares it (hit). The hit rate is the
// direct measure of what the cache buys a replication-heavy call.
const (
	mPlanBuilt = "relest_plan_built_total"
	mPlanHit   = "relest_plan_cache_hit_total"
)

// NewPlanCache creates an empty plan cache that reports nothing and whose
// plans probe their joins through hash indexes.
func NewPlanCache() *PlanCache {
	return NewPlanCacheRec(nil, nil)
}

// NewPlanCacheRec creates an empty plan cache reporting compilations and
// hits to the recorder (nil = no reporting). Given a key domain, its plans
// count a single-column pair join over sample views by key code in keys
// (Coded); one domain serves every plan of the cache, so the codes of any
// two views it joins agree. With nil keys every join probes a hash index.
func NewPlanCacheRec(rec obs.Recorder, keys *relation.KeyDomain) *PlanCache {
	return &PlanCache{
		entries: make(map[string]*cacheEntry),
		rec:     obs.Or(rec),
		keys:    keys,
	}
}

// planCacheKey identifies a (term, instances) pair by pointer identity,
// encoded structurally: every component is length-prefixed and the instance
// count is explicit, so no concatenation of distinct (term, instances)
// pairs can produce the same byte string. (Naive separator-joined keys
// collide whenever a component can contain the separator or a boundary can
// shift — the adversarial cases TestPlanCacheKeyStructural feeds the
// encoder.)
func planCacheKey(t *Term, inst Instances) string {
	buf := make([]byte, 0, 20+20*len(inst))
	buf = appendKeyPart(buf, fmt.Sprintf("%p", t))
	buf = binary.AppendUvarint(buf, uint64(len(inst)))
	for _, r := range inst {
		buf = appendKeyPart(buf, fmt.Sprintf("%p", r))
	}
	return string(buf)
}

// appendKeyPart appends one length-prefixed component to a structural key.
// Length-prefixing makes the encoding injective: part boundaries are
// explicit, so ("ab","c") and ("a","bc") encode differently even though
// their concatenations are equal.
func appendKeyPart(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Prepare returns the cached plan for (t, inst), compiling it on first use.
func (c *PlanCache) Prepare(t *Term, inst Instances) (*PreparedTerm, error) {
	key := planCacheKey(t, inst)
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.rec.Add(mPlanHit, 1)
	} else {
		c.rec.Add(mPlanBuilt, 1)
	}
	e.once.Do(func() { e.pt, e.err = prepare(t, inst, c.keys) })
	return e.pt, e.err
}

// Vestigial: cross-term prefix sharing was removed in PR 22 (DESIGN.md §11)
// and this method stays, attaching nothing, only because benchmark/ compiles
// against it. Remove when the benchmark contract is next revised.
func (c *PlanCache) AttachCSE(plans []*PreparedTerm) int {
	return 0
}

// Len returns the number of cached (term, instances) entries.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// CountAssignments returns the number of occurrence-row assignments
// satisfying the term over the instances. It compiles a throwaway plan; use
// Prepare/PlanCache when the same term and instances are evaluated more
// than once.
func (t *Term) CountAssignments(inst Instances) (float64, error) {
	pt, err := Prepare(t, inst)
	if err != nil {
		return 0, err
	}
	return pt.Count(), nil
}

// EnumerateAssignments invokes visit for every satisfying assignment (rows
// positionally aligned with Term.Occs). visit must not retain the slice.
// Enumeration stops early if visit returns false. It compiles a throwaway
// plan; use Prepare/PlanCache for repeated evaluation.
func (t *Term) EnumerateAssignments(inst Instances, visit func(rows []int) bool) error {
	pt, err := Prepare(t, inst)
	if err != nil {
		return err
	}
	pt.Enumerate(visit)
	return nil
}

// ExactCount evaluates the polynomial with unit weights over the catalog's
// full relations: the result equals COUNT(E) for the normalized expression.
// It exists to validate the normalizer against the exact evaluator and to
// let tests cross-check term evaluation.
func (p Polynomial) ExactCount(cat Catalog) (float64, error) {
	total := 0.0
	for i := range p.Terms {
		t := &p.Terms[i]
		inst, err := BindInstances(t, cat)
		if err != nil {
			return 0, err
		}
		c, err := t.CountAssignments(inst)
		if err != nil {
			return 0, err
		}
		total += float64(t.Coef) * c
	}
	return total, nil
}
