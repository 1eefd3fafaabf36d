package algebra

import (
	"fmt"
	"slices"
	"sync"

	"relest/internal/obs"
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
// vectors), codes the keys of every equality between two occurrences in
// the plan's domain (relation.KeyDomain), and enumerates assignments
// recursively, reading each keyed step's candidates from an index of its
// rows by code (relation.Index) at the bound row's code. In pure counting
// mode, occurrences that are unconstrained from some point on are folded
// into a single multiplicative factor instead of being enumerated, and
// the last enumerated step, when no residual predicate waits on it,
// counts its candidates without visiting them.
//
// A two-step keyed plan (Pairs) is not enumerated: its two sides' rows
// are counted per key code in one pair tally (pairTally, the one a
// RunningTally keeps across rounds), read off the candidate lists and
// code vectors the plan already holds. The tally gives the count and the
// sums of squares the COUNT closed forms need (PairMoments), the per-row
// partner counts of the moment pass (Marginals), and, with one side's
// weights summed per code, the SUM closed forms. Enumeration, Count and
// the tally share one definition of a join match: equal codes in the
// plan's domain.
//
// Compilation is separated from evaluation: Prepare (or a PlanCache)
// produces an immutable PreparedTerm whose candidate lists and key codes
// are built once and whose indexes are built once, on the first
// enumeration that reads them (a sample view keeps its codes in a
// synopsis's domain across plans), and every evaluation carries its own
// scratch state (termEval), so one plan can serve any number of
// concurrent evaluations. Split-sample replicates are not compiled either:
// PreparedTerm.Label reads the full plan once for every group (Labelled).

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
// (entries match on instance identity); relations are not mutated in
// place behind a cached plan — a cache is scoped to one evaluation.
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

	// weight is a weighted term's row weight (Term.Weight) over every row
	// of its occurrence's instance, computed once at compile; nil for an
	// unweighted term.
	weight []float64
}

type planStep struct {
	occ int
	// A keyed step's rows match the row the assignment binds occurrence
	// probeOcc to when codes, the codes of the occurrence's cells on
	// keyCols, equals probe, the codes of probeOcc's cells on the columns
	// keyCols are equated with, in the same domain, so equal codes are
	// Equal keys. Enumeration reads the matching candidates from index, an
	// index of the step's candidate rows by codes (relation.Index). Empty
	// keyCols means a full scan of the candidate list, and a nil index.
	keyCols  []int
	probeOcc int
	probe    []int32
	codes    []int32
	index    *stepIndex
	// checks are the step's other equalities to bound occurrences, those
	// whose bound side is not probeOcc: each holds when two code vectors
	// agree at the assigned rows.
	checks []codeCheck
	// preds to evaluate once this step's occurrence is bound.
	preds []TermPred
}

// codeCheck is one equality a keyed step checks after its probe: the code
// of the step's occurrence's cell (own, by instance row) equals the code
// of bound occurrence occ's cell (other).
type codeCheck struct {
	occ        int
	own, other []int32
}

// stepIndex is a keyed step's index, built on the first enumeration that
// reads it, once for every caller of the plan.
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

// compile builds the evaluation plan over the instances, coding its join
// keys in the domain keys: every occurrence's candidate rows (the instance
// rows, ascending, that pass its local predicates and intra-occurrence
// equalities), the greedy join order chosen from their sizes, the
// constraints assigned to steps, each keyed step's code vectors and its
// index of its candidates by code on first use (stepIndex), and the folded
// tail. Candidate lists are ascending, so bucket rows keep ascending
// (enumeration) order.
//
// A step's equalities to bound occurrences key its index when they all
// reach one occurrence, on the tuple of their columns. When they reach
// several, the equalities to the first one reached key the index and the
// rest are checked per candidate (codeCheck): the rows that pass are the
// rows a composite index over every equality would list, in the same
// ascending order.
func compile(t *Term, inst Instances, keys *relation.KeyDomain) (*termPlan, error) {
	if len(inst) != len(t.Occs) {
		return nil, fmt.Errorf("algebra: term has %d occurrences, got %d instances", len(t.Occs), len(inst))
	}
	for i, r := range inst {
		if !r.Schema().EqualLayout(t.Occs[i].Schema) {
			return nil, fmt.Errorf("algebra: instance %d layout %s does not match occurrence schema %s",
				i, r.Schema(), t.Occs[i].Schema)
		}
	}
	intraEqs := intraEqualities(t)
	cand := make([][]int, len(t.Occs))
	for i, r := range inst {
		cand[i] = occCandidates(t, i, intraEqs[i], r, 0, nil)
	}
	p := &termPlan{term: t, inst: inst, cand: cand}
	if w := t.Weight; w != nil {
		p.weight = w.rows(inst[w.Occ], cand[w.Occ])
	}
	m := len(t.Occs)
	// codes codes r's cells on cols once per (instance, columns): a
	// self-join over a base relation codes its key once.
	type coded struct {
		r     *relation.Relation
		cols  []int
		codes []int32
	}
	var done []coded
	codes := func(r *relation.Relation, cols []int) []int32 {
		for _, c := range done {
			if c.r == r && slices.Equal(c.cols, cols) {
				return c.codes
			}
		}
		done = append(done, coded{r, cols, r.KeyCodes(cols, keys)})
		return done[len(done)-1].codes
	}
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
	probeCols := make([][]int, m) // plan position → probeOcc's columns, aligned with keyCols
	for _, eq := range crossEqs {
		// The equality is enforced at the later of its two occurrences.
		a, b := eq.A, eq.B
		if p.pos[a.Occ] < p.pos[b.Occ] {
			a, b = b, a
		}
		// a is bound later: key a's occurrence on a.Col, probe with b.
		k := p.pos[a.Occ]
		st := &p.steps[k]
		if len(st.keyCols) == 0 || st.probeOcc == b.Occ {
			st.probeOcc = b.Occ
			st.keyCols = append(st.keyCols, a.Col)
			probeCols[k] = append(probeCols[k], b.Col)
			continue
		}
		st.checks = append(st.checks, codeCheck{
			occ:   b.Occ,
			own:   codes(inst[a.Occ], []int{a.Col}),
			other: codes(inst[b.Occ], []int{b.Col}),
		})
	}
	for _, pr := range t.Preds {
		last := 0
		for _, occ := range pr.Occs {
			last = max(last, p.pos[occ])
		}
		p.steps[last].preds = append(p.steps[last].preds, pr)
		p.maxPredOccs = max(p.maxPredOccs, len(pr.Occs))
	}

	// Code and index the keyed steps and mark the independent tail.
	for k := range p.steps {
		st := &p.steps[k]
		if len(st.keyCols) > 0 {
			st.probe = codes(inst[st.probeOcc], probeCols[k])
			st.codes = codes(inst[st.occ], st.keyCols)
			rows, vec := cand[st.occ], st.codes
			st.index = &stepIndex{build: func() *relation.Index { return relation.NewIndex(vec, rows) }}
		}
	}
	p.enumUpto = m
	p.tailFactor = 1.0
	for k := m - 1; k >= 0; k-- {
		st := &p.steps[k]
		if len(st.keyCols) == 0 && len(st.preds) == 0 {
			p.tailFactor *= float64(len(p.cand[st.occ]))
			p.enumUpto = k
		} else {
			break
		}
	}
	return p, nil
}

// intraEqualities lists, per occurrence, the term's equalities between
// two of its own columns.
func intraEqualities(t *Term) [][]EqCol {
	intraEqs := make([][]EqCol, len(t.Occs))
	for _, eq := range t.Eqs {
		if eq.A.Occ == eq.B.Occ {
			intraEqs[eq.A.Occ] = append(intraEqs[eq.A.Occ], eq)
		}
	}
	return intraEqs
}

// occCandidates returns the rows of r from row from on, ascending, that
// pass occurrence occ's local predicates and its intra-occurrence
// equalities intraEqs, in buf's storage when it has the room.
func occCandidates(t *Term, occ int, intraEqs []EqCol, r *relation.Relation, from int, buf []int) []int {
	rows := buf[:0]
	if cap(rows) < r.Len()-from {
		rows = make([]int, 0, r.Len()-from)
	}
	for row := from; row < r.Len(); row++ {
		rows = append(rows, row)
	}
	for _, lp := range t.Occs[occ].LocalPreds {
		rows = lp(r, rows)
	}
	for _, eq := range intraEqs {
		rows = r.FilterEqual(rows, eq.A.Col, eq.B.Col)
	}
	return rows
}

// termEval is the per-evaluation scratch over an immutable plan: the
// assignment under construction (which the join probe reads its key rows
// from) and the rows residual predicates read. Hoisting these out of the
// innermost enumeration loops removes the per-check allocations, and
// keeping them off the plan lets concurrent evaluations share one plan
// safely. An evaluation of group l of a labelled pass (lab non-nil) reads
// the group's candidates and buckets instead of the plan's.
type termEval struct {
	p      *termPlan
	assign []int
	rows   []relation.Row
	lab    *Labelled
	l      int
}

func (p *termPlan) newEval() *termEval {
	return &termEval{
		p:      p,
		assign: make([]int, len(p.steps)),
		rows:   make([]relation.Row, p.maxPredOccs),
	}
}

// candidatesAt returns the rows compatible with the bound prefix at step k:
// the step's candidate list, or the index bucket of the probe key's code
// (allocation-free).
func (ev *termEval) candidatesAt(k int) []int {
	st := &ev.p.steps[k]
	if ev.lab != nil {
		return ev.lab.candidatesAt(ev, k)
	}
	if st.index == nil {
		return ev.p.cand[st.occ]
	}
	return st.index.get().Lookup(st.probe[ev.assign[st.probeOcc]])
}

// holds evaluates the step's code checks and residual predicates on the
// assignment.
func (ev *termEval) holds(k int) bool {
	p := ev.p
	st := &p.steps[k]
	row := ev.assign[st.occ]
	for _, c := range st.checks {
		if c.own[row] != c.other[ev.assign[c.occ]] {
			return false
		}
	}
	for _, pr := range st.preds {
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

// Prepare compiles an evaluation plan for the term over the instances,
// coding its join keys in a domain of its own: the codes live as long as
// the plan.
func Prepare(t *Term, inst Instances) (*PreparedTerm, error) {
	return prepare(t, inst, relation.NewKeyDomain())
}

// prepare compiles the plan, coding its join keys in keys.
func prepare(t *Term, inst Instances, keys *relation.KeyDomain) (*PreparedTerm, error) {
	p, err := compile(t, inst, keys)
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
// contributes the length of its candidate list when it has no code check
// or residual predicate: the same float the per-candidate sum of 1s would
// reach, exactly, since every partial count is an integer below 2^53.
func (pt *PreparedTerm) CountPart(part, parts int) float64 {
	return pt.p.countPart(pt.p.newEval(), part, parts, pt.p.tailFactor)
}

// countPart is CountPart on the evaluation ev, whose candidates' folded
// tail multiplies its count by tail.
func (p *termPlan) countPart(ev *termEval, part, parts int, tail float64) float64 {
	//lint:ignore floateq exact sentinel: a zero tail factor means an empty folded tail, so the term contributes nothing
	if tail == 0 {
		return 0
	}
	if p.enumUpto == 0 {
		if part != 0 {
			return 0
		}
		return tail
	}
	last := p.enumUpto - 1
	countLast := len(p.steps[last].preds) == 0 && len(p.steps[last].checks) == 0
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
			if !ev.holds(k) {
				continue
			}
			total += rec(k + 1)
		}
		return total
	}
	return rec(0) * tail
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
	pt.p.enumerate(pt.p.newEval(), part, parts, len(pt.p.steps), visit)
}

// enumerate is EnumeratePart on the evaluation ev over the plan's first
// upto steps: visit sees every satisfying assignment of those steps'
// occurrences, and the rows it holds for the other occurrences are
// meaningless.
func (p *termPlan) enumerate(ev *termEval, part, parts, upto int, visit func(rows []int) bool) {
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
			if !ev.holds(k) {
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

// Factorizes reports whether Marginals counts per key code instead of
// enumerating: the plan enumerates at most one step, or has the Pairs
// shape.
func (pt *PreparedTerm) Factorizes() bool {
	return pt.p.enumUpto <= 1 || pt.Pairs()
}

// Pairs reports whether the plan enumerates exactly two steps and the
// second is keyed with no residual predicate to check. Every equi-join of
// two occurrences has this shape, with any σ pushed into the candidate
// lists and any unconstrained tail folded; PairMoments counts it per key
// code.
func (pt *PreparedTerm) Pairs() bool { return pt.p.pairs() }

func (p *termPlan) pairs() bool {
	return p.enumUpto == 2 && len(p.steps[1].keyCols) > 0 && len(p.steps[1].preds) == 0
}

// Enumerated reports whether the plan enumerates occurrence occ, rather
// than folding it into the tail's factor: only an enumerated occurrence
// can carry a PairMoments row weight.
func (pt *PreparedTerm) Enumerated(occ int) bool {
	return pt.p.pos[occ] < pt.p.enumUpto
}

// Weight returns the row weight of a weighted term's plan, the term's
// Weight read over its instance, or nil for an unweighted term. Count,
// Marginals and an unweighted PairMoments count a weighted plan's
// assignments, not their weights: its value is PairMoments(Weight()) or
// an enumeration summing the weight.
func (pt *PreparedTerm) Weight() *RowWeight {
	vec := pt.p.weight
	if vec == nil {
		return nil
	}
	return &RowWeight{Occ: pt.p.term.Weight.Occ, W: func(row int) float64 { return vec[row] }}
}

// RowWeight weights the rows of one occurrence in a pair tally: W(row)
// is the weight of instance row `row` of occurrence Occ. W must depend on
// the row alone.
type RowWeight struct {
	Occ int
	W   func(row int) float64
}

// PairMoments is the moment pass of a plan with the Pairs shape, read off
// its pair tally: the scanned rows (first-step candidates) whose key code
// is k have weights summing to A_k, with squares summing to Qa_k, and the
// second step's candidates of code k have B_k and Qb_k. An unweighted
// side has its row count for both, so a COUNT has a_k and b_k. These are
// GUS's keyed group sums for two relations; every COUNT and SUM variance
// form of a two-occurrence join is a function of them.
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
	// other one, zero for folded occurrences. Unweighted, for a
	// two-occurrence term it is the sum of squares of Marginals().Rows[occ].
	SumSq []float64
}

// PairMoments counts a plan with the Pairs shape per key code, weighting
// the rows of w's occurrence by w (nil counts). It returns the weighted
// moments and, from the same pass, the unweighted ones (counts; pm itself
// when w is nil). w's occurrence must be one of the two enumerated ones.
//
// The pass fills the plan's pair tally (tallyPairs): one code read and one
// count read per candidate row, and no assignment is visited. Every count
// is an integer below 2^53, so Total equals Count and SumSq the sums over
// Marginals exactly. A weighted pass sums the weighted side's weights per
// code in a fixed order, so its floats have the same bits every run: a
// scanned row's weight joins its part's partial sum for its code, and the
// partial sums fold into the code's total at each part boundary, in part
// order; the second step's weights are summed in ascending row order; and
// the moments sum over the codes in the order the scan first paired them.
func (pt *PreparedTerm) PairMoments(w *RowWeight) (pm, counts PairMoments) {
	p := pt.p
	first, second := &p.steps[0], &p.steps[1]
	scanW, indexW := p.weightSides(w, "PairMoments")
	//lint:ignore floateq exact sentinel: a zero tail factor means an empty folded tail, so the term has no assignments (Count returns 0 without probing)
	if p.tailFactor == 0 {
		counts = PairMoments{SumSq: make([]float64, len(p.inst))}
		pm = counts
		if w != nil {
			pm.SumSq = make([]float64, len(p.inst))
		}
		return pm, counts
	}
	// order lists the codes the scan pairs with a second-step row, in the
	// order it first paired them; mark[k] is one more than the last part
	// that paired code k (0 before the first), and touched the codes the
	// current part paired. Part 0's scanned weights sum straight into
	// sum[k]; a later part's sum in partSum[k], folded into sum[k] at the
	// part's end.
	var order, touched []int32
	var mark []int32
	var sum, sq, partSum, partSq []float64
	total := 0.0
	t := &pairTally{}
	pt.tallyPairs(t, func(part int, rows []int, n int64) {
		total += float64(n) * p.tailFactor
		if w == nil {
			return
		}
		if mark == nil {
			mark = make([]int32, len(t.count[1]))
			sum, sq = make([]float64, len(mark)), make([]float64, len(mark))
		}
		acc, accSq := sum, sq
		if part > 0 && scanW != nil {
			if partSum == nil {
				partSum, partSq = make([]float64, len(mark)), make([]float64, len(mark))
			}
			acc, accSq = partSum, partSq
		}
		touched = touched[:0]
		for _, row := range rows {
			k := second.probe[row]
			if t.at(1, k) == 0 {
				continue
			}
			if mark[k] == 0 {
				order = append(order, k)
			}
			if mark[k] != int32(part+1) {
				mark[k] = int32(part + 1)
				touched = append(touched, k)
			}
			if scanW != nil {
				x := scanW(row)
				acc[k] += x
				accSq[k] += x * x
			}
		}
		if part > 0 && scanW != nil {
			for _, k := range touched {
				sum[k] += partSum[k]
				sq[k] += partSq[k]
				partSum[k], partSq[k] = 0, 0
			}
		}
	})
	counts = t.moments([2]int{first.occ, second.occ}, len(p.inst), p.tailFactor)
	counts.Total = total // in Count's part order
	if w == nil {
		return counts, counts
	}
	if indexW != nil {
		for _, row := range p.cand[second.occ] {
			if k := second.codes[row]; t.at(0, k) > 0 {
				x := indexW(row)
				sum[k] += x
				sq[k] += x * x
			}
		}
	}
	var T, y2, sa, sb float64
	for _, k := range order {
		A, B := float64(t.count[0][k]), float64(t.count[1][k])
		Qa, Qb := A, B
		if scanW != nil {
			A, Qa = sum[k], sq[k]
		} else {
			B, Qb = sum[k], sq[k]
		}
		T += A * B
		y2 += Qa * Qb
		sa += Qa * B * B
		sb += Qb * A * A
	}
	pm = PairMoments{Total: T * p.tailFactor, SumY2: y2, SumSq: make([]float64, len(p.inst))}
	pm.SumSq[first.occ], pm.SumSq[second.occ] = sa, sb
	return pm, counts
}

// weightSides resolves w (nil: none) onto a Pairs plan's scanned first
// step or its second step, for the caller named who.
func (p *termPlan) weightSides(w *RowWeight, who string) (scanW, indexW func(row int) float64) {
	switch {
	case w == nil:
		return nil, nil
	case w.Occ == p.steps[0].occ:
		return w.W, nil
	case w.Occ == p.steps[1].occ:
		return nil, w.W
	}
	panic(fmt.Sprintf("algebra: %s weight on occurrence %d, which the plan does not enumerate", who, w.Occ))
}

// scan hands each part (Parts) of the first step's candidates that pass
// its residual predicates to each, in part order, as the rows of that
// part's assignments' first occurrence. The slice is scratch that the
// next part reuses.
func (pt *PreparedTerm) scan(each func(part int, rows []int)) {
	p := pt.p
	first := &p.steps[0]
	var ev *termEval
	if len(first.preds) > 0 {
		ev = p.newEval()
	}
	var buf []int
	cands := p.cand[first.occ]
	parts := pt.Parts()
	for part := 0; part < parts; part++ {
		lo, hi := chunk(len(cands), part, parts)
		rows := cands[lo:hi]
		if ev != nil {
			kept := buf[:0]
			for _, row := range rows {
				ev.assign[first.occ] = row
				if ev.holds(0) {
					kept = append(kept, row)
				}
			}
			rows, buf = kept, kept
		}
		each(part, rows)
	}
}

// tallyPairs fills t, empty, with the pair tally of a plan with the Pairs
// shape, from the candidate lists and code vectors the plan holds: side 1
// is the second step's candidates under their own codes, side 0 the
// scanned rows (scan) under the second step's probe, added part by part.
// The tally is fixed at side 1's largest code, so a scanned row coded
// beyond it is not counted. each sees every part's scanned rows and the
// number of pairs they make, after they are added and with side 1
// complete.
func (pt *PreparedTerm) tallyPairs(t *pairTally, each func(part int, rows []int, n int64)) {
	second := &pt.p.steps[1]
	rows := pt.p.cand[second.occ]
	top := int32(-1) // the largest code a scanned row can pair on
	for _, row := range rows {
		top = max(top, second.codes[row])
	}
	t.count = [2][]int32{make([]int32, top+1), make([]int32, top+1)}
	t.fixed = true
	t.add(1, rows, second.codes)
	pt.scan(func(part int, rows []int) { each(part, rows, t.add(0, rows, second.probe)) })
}

// Marginals runs the term's moment pass. It visits only the plan's
// enumerated prefix. A plan that Factorizes scans the first step's
// candidates once and, when a second step is enumerated, fills the pair
// tally (tallyPairs, the pass PairMoments runs): a_k scanned rows and b_k
// second-step candidates have code k, so a scanned row's marginal is b_k,
// a second-step row's is a_k and the total is Σ a_k·b_k — at a cost of
// O(Σ candidate rows), not O(assignments). Any other plan enumerates its
// prefix assignments. A folded tail is never enumerated: it multiplies
// every prefix count by its factor, and each tail candidate's marginal is
// the prefix count times the other tail occurrences' candidate counts.
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
		p.enumerate(p.newEval(), part, parts, p.enumUpto, func(rows []int) bool {
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
	scanned := mg.Rows[p.steps[0].occ]
	prefix := 0
	if p.enumUpto == 1 {
		pt.scan(func(_ int, rows []int) {
			for _, row := range rows {
				scanned[row] = p.tailFactor
			}
			mg.Total += float64(len(rows)) * p.tailFactor
			prefix += len(rows)
		})
		return prefix
	}
	second := &p.steps[1]
	t := &pairTally{}
	pt.tallyPairs(t, func(_ int, rows []int, n int64) {
		for _, row := range rows {
			if c := t.at(1, second.probe[row]); c > 0 {
				scanned[row] = float64(c) * p.tailFactor
			}
		}
		mg.Total += float64(n) * p.tailFactor
		prefix += int(n)
	})
	rows := mg.Rows[second.occ]
	for _, row := range p.cand[second.occ] {
		if c := t.at(0, second.codes[row]); c > 0 {
			rows[row] = float64(c) * p.tailFactor
		}
	}
	return prefix
}

// PlanCache caches compiled term plans per (term, instances) pair, by
// identity: an entry matches the term's pointer and every instance's. One
// estimate evaluates the same (term, instances) pairs several times — the
// point estimate, the closed-form variance passes, the jackknife's moment
// or enumeration pass and the split-sample pass that reads each plan once
// for every group (PreparedTerm.Label) — and the cache makes each pair
// compile exactly once.
// It is safe for concurrent use; concurrent Prepare calls for the same
// pair compile once and share the plan.
//
// The cache holds plans for as long as it lives, so callers scope it to an
// evaluation (the estimator builds one engine per top-level call). Every
// plan of a cache codes its join keys in the cache's key domain, so the
// codes of any two instances it joins agree. What outlives the cache is
// per view, not per plan: a sample view memoizes its code vectors in a
// synopsis's domain (relation.NewMemoKeyDomain), so a later call over the
// same synopsis recompiles its plans but does not recode those keys.
type PlanCache struct {
	mu      sync.Mutex
	entries map[*Term][]*cacheEntry
	rec     obs.Recorder
	keys    *relation.KeyDomain
}

type cacheEntry struct {
	inst Instances
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
// plans code their join keys in a domain of the cache's own, which dies
// with it.
func NewPlanCache() *PlanCache {
	return NewPlanCacheRec(nil, relation.NewKeyDomain())
}

// NewPlanCacheRec creates an empty plan cache reporting compilations and
// hits to the recorder (nil = no reporting), whose plans code their join
// keys in keys (non-nil).
func NewPlanCacheRec(rec obs.Recorder, keys *relation.KeyDomain) *PlanCache {
	return &PlanCache{
		entries: make(map[*Term][]*cacheEntry),
		rec:     obs.Or(rec),
		keys:    keys,
	}
}

// Prepare returns the cached plan for (t, inst), compiling it on first use.
func (c *PlanCache) Prepare(t *Term, inst Instances) (*PreparedTerm, error) {
	c.mu.Lock()
	var e *cacheEntry
	for _, x := range c.entries[t] {
		if slices.Equal(x.inst, inst) {
			e = x
			break
		}
	}
	hit := e != nil
	if !hit {
		e = &cacheEntry{inst: slices.Clone(inst)}
		c.entries[t] = append(c.entries[t], e)
	}
	c.mu.Unlock()
	if hit {
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
	n := 0
	for _, es := range c.entries {
		n += len(es)
	}
	return n
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

// ExactCount evaluates the polynomial with unit sampling weights over the
// catalog's full relations: the result equals COUNT(E) for the normalized
// expression, and for its fusion (Fuse) over duplicate-free relations. A
// weighted term sums its assignments' row weights. It exists to validate
// the normalizer against the exact evaluator and to let tests cross-check
// term evaluation.
func (p Polynomial) ExactCount(cat Catalog) (float64, error) {
	total := 0.0
	for i := range p.Terms {
		t := &p.Terms[i]
		inst, err := BindInstances(t, cat)
		if err != nil {
			return 0, err
		}
		pt, err := Prepare(t, inst)
		if err != nil {
			return 0, err
		}
		c := 0.0
		if w := pt.Weight(); w != nil {
			pt.Enumerate(func(rows []int) bool {
				c += w.W(rows[w.Occ])
				return true
			})
		} else {
			c = pt.Count()
		}
		total += float64(t.Coef) * c
	}
	return total, nil
}
