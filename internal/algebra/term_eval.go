package algebra

import (
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
// vectors), buckets every occurrence that an equality connects to
// already-bound ones by key code (relation.KeyDomain, relation.Index),
// reading the bound row's code to find its bucket, and enumerates
// assignments recursively. In pure counting mode, occurrences that are
// unconstrained from some point on are folded into a single
// multiplicative factor instead of being enumerated, and the last enumerated step, when no
// residual predicate waits on it, counts its candidates without visiting
// them. A two-step keyed plan is counted per bucket (PairMoments) — or
// summed, with a weight on one occurrence's rows — and the same tally
// yields the sums of squares the COUNT and SUM closed forms need; the
// moment pass (Marginals) derives every row's partner count from the same
// per-bucket counts. Every keyed step of every plan finds its bucket the
// same way, so the tally, enumeration, Count and split-sample replicates
// share one definition of a join match: equal codes in the plan's domain.
//
// Compilation is separated from evaluation: Prepare (or a PlanCache)
// produces an immutable PreparedTerm whose candidate lists and key codes
// are built once and whose indexes are built once, on first use (a sample
// view keeps its codes in a synopsis's domain across plans), and every
// evaluation carries its own
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
// (entries match on instance identity); relations are not mutated in
// place behind a cached plan — a cache is scoped to one evaluation.
type termPlan struct {
	term *Term
	inst Instances

	// keys is the domain the plan codes its join keys in, and coded the
	// code vectors compile took from it (keyCoder), which Split reuses.
	keys  *relation.KeyDomain
	coded []codedKey

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
}

type planStep struct {
	occ int
	// A keyed step reads its candidates from an index of the occurrence's
	// candidate rows by the codes of their cells on keyCols
	// (relation.Index), and the bucket a step reads is the one of probe's
	// code at the row the assignment binds occurrence probeOcc to — probe
	// holds the codes of probeOcc's cells on the columns keyCols are
	// equated with, in the same domain, so equal codes are Equal keys.
	// Empty keyCols means a full scan of the candidate list, and a nil
	// index.
	keyCols  []int
	probeOcc int
	probe    []int32
	index    *stepIndex
	// checks are the step's other equalities to bound occurrences, those
	// whose bound side is not probeOcc: each holds when two code vectors
	// agree at the assigned rows.
	checks []codeCheck
	// preds to evaluate once this step's occurrence is bound.
	preds []TermPred
	// independent marks a tail step with no constraints at or after it;
	// counting mode multiplies by len(cand) instead of recursing.
	independent bool
}

// codeCheck is one equality a keyed step checks after its probe: the code
// of the step's occurrence's cell (own, by instance row) equals the code
// of bound occurrence occ's cell (other).
type codeCheck struct {
	occ        int
	own, other []int32
}

// stepIndex is a keyed step's index, built on first use, once for every
// caller of the plan.
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

// keyCoder hands out the code vectors a plan joins on, coded in one domain
// (relation.Relation.KeyCodes), each (instance, columns) pair once: a
// self-join over a base relation codes its key once, and Split reuses the
// vectors compile took.
type keyCoder struct {
	keys *relation.KeyDomain
	done []codedKey
}

// codedKey is one code vector a keyCoder handed out.
type codedKey struct {
	rel   *relation.Relation
	cols  []int
	codes []int32
}

// codes returns the codes of r's cells on cols.
func (kc *keyCoder) codes(r *relation.Relation, cols []int) []int32 {
	for _, c := range kc.done {
		if c.rel == r && slices.Equal(c.cols, cols) {
			return c.codes
		}
	}
	codes := r.KeyCodes(cols, kc.keys)
	kc.done = append(kc.done, codedKey{rel: r, cols: cols, codes: codes})
	return codes
}

// compile builds the evaluation plan over the instances, coding its join
// keys in the domain keys: the candidate lists, then planOver, whose keyed
// steps index their candidates by code on first use.
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
	cand := candidates(t, inst)
	kc := &keyCoder{keys: keys}
	p := planOver(t, inst, cand, kc, func(occ int, _ []int, codes []int32) *relation.Index {
		return relation.NewIndex(codes, cand[occ])
	})
	p.keys, p.coded = keys, slices.Clip(kc.done)
	return p, nil
}

// candidates returns every occurrence's candidate rows: the instance rows,
// ascending, that pass its local predicates and intra-occurrence
// equalities.
func candidates(t *Term, inst Instances) [][]int {
	intraEqs := intraEqualities(t)
	cand := make([][]int, len(t.Occs))
	for i, r := range inst {
		cand[i] = occCandidates(t, i, intraEqs[i], r, 0, nil)
	}
	return cand
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

// planOver plans the term over fixed candidate lists: the greedy join
// order chosen from their sizes, the constraints assigned to steps, each
// keyed step's code vectors from kc and its index from
// indexFor(occurrence, key columns, key codes) on first use (stepIndex),
// and the folded tail. Candidate lists must be ascending, so bucket rows
// keep ascending (enumeration) order. compile and Split both plan through
// it, so a replicate plan orders its steps exactly as a compile over the
// replicate's own rows would.
//
// A step's equalities to bound occurrences key its index when they all
// reach one occurrence, on the tuple of their columns. When they reach
// several, the equalities to the first one reached key the index and the
// rest are checked per candidate (codeCheck): the rows that pass are the
// rows a composite index over every equality would list, in the same
// ascending order.
func planOver(t *Term, inst Instances, cand [][]int, kc *keyCoder, indexFor func(occ int, keyCols []int, codes []int32) *relation.Index) *termPlan {
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
			own:   kc.codes(inst[a.Occ], []int{a.Col}),
			other: kc.codes(inst[b.Occ], []int{b.Col}),
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
			st.probe = kc.codes(inst[st.probeOcc], probeCols[k])
			occ, keyCols, codes := st.occ, st.keyCols, kc.codes(inst[st.occ], st.keyCols)
			st.index = &stepIndex{build: func() *relation.Index { return indexFor(occ, keyCols, codes) }}
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
// the step's candidate list, or the index bucket of the probe key's code
// (allocation-free).
func (ev *termEval) candidatesAt(k int) []int {
	st := &ev.p.steps[k]
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

// Partition assigns every row of a term's sample instances to one of g
// groups — the replicate split of split-sample variance — and memoizes
// what Split derives from it, so terms sharing an instance share its
// partitioned candidate lists and split indexes. A Partition is not safe
// for concurrent use; the plans Split derives from it are.
type Partition struct {
	g      int
	labels map[*relation.Relation][]int32

	cands  map[candKey][][]int
	splits []splitIndex
}

// candKey identifies a candidate list: the whole instance or an empty list
// (first nil, told apart by n), or a filtered list by its backing array.
type candKey struct {
	rel   *relation.Relation
	first *int
	n     int
}

// splitIndex is the g parts of one full-candidate index: an instance's
// candidate list cand keyed on cols, coded in keys. Its buckets are codes
// of one domain, so only plans coding their keys in it share it.
type splitIndex struct {
	keys  *relation.KeyDomain
	cand  candKey
	cols  []int
	parts []*relation.Index
}

// NewPartition partitions instance rows into g groups by label:
// labels[r][row] ∈ [0, g) is the group of row `row` of instance r, and
// every instance a split plan reads must be labelled.
func NewPartition(g int, labels map[*relation.Relation][]int32) *Partition {
	return &Partition{
		g:      g,
		labels: labels,
		cands:  make(map[candKey][][]int),
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
// of plan p on keyCols, whose codes are codes: split once per Partition
// for every plan over the same candidates, from p's own index when a step
// of p holds it, otherwise from one built here.
func (pa *Partition) index(p *termPlan, occ int, keyCols []int, codes []int32) []*relation.Index {
	r, cand := p.inst[occ], p.cand[occ]
	key := keyOf(r, cand)
	for _, s := range pa.splits {
		if s.keys == p.keys && s.cand == key && slices.Equal(s.cols, keyCols) {
			return s.parts
		}
	}
	var full *relation.Index
	for k := range p.steps {
		if st := &p.steps[k]; st.occ == occ && st.index != nil && slices.Equal(st.keyCols, keyCols) {
			full = st.index.get()
			break
		}
	}
	if full == nil {
		full = relation.NewIndex(codes, cand)
	}
	parts := full.Split(pa.labels[r], pa.g)
	pa.splits = append(pa.splits, splitIndex{keys: p.keys, cand: key, cols: keyCols, parts: parts})
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
// Partition is not safe for concurrent use; keys are the codes this plan
// holds, or coded in its domain; and the greedy order is re-chosen from
// the replicate's own candidate counts by the same planOver that compile
// uses, so a replicate whose order differs from this plan's is planned
// exactly as an independent compile would plan it.
func (pt *PreparedTerm) Split(pa *Partition) []*PreparedTerm {
	p := pt.p
	kc := &keyCoder{keys: p.keys, done: p.coded}
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
		rp := planOver(p.term, p.inst, cand[l], kc, func(occ int, keyCols []int, codes []int32) *relation.Index {
			return pa.index(p, occ, keyCols, codes)[l]
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
// contributes the length of its candidate list when it has no code check
// or residual predicate: the same float the per-candidate sum of 1s would
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
// its bucket tally: the scanned rows (first-step candidates) that land in
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
// moments and, from the same scan, the unweighted ones (counts; pm
// itself when w is nil). w's occurrence must be one of the two enumerated
// ones.
//
// The parts (Parts) fan out over up to workers goroutines. Each scanned
// row costs one code read and one bucket read, and the sums run over the
// buckets the scan touched; no assignment is visited. Counting keeps one
// tally per worker, merged by integer addition: every partial sum is an
// integer below 2^53, so Total equals Count and SumSq the sums over
// Marginals exactly, in any order. A weighted pass keeps one tally per
// part and merges them in part order, and sums over the buckets in the
// order the scan first touched them, so its float sums have the same bits
// for every worker count.
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
	ix := second.index.get()
	buckets := ix.Buckets()
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
	var ca, cb float64 // the counts' SumSq
	var T, y2, sa, sb float64
	for _, k := range a.touched {
		fa, fb := float64(a.count[k]), float64(ix.BucketLen(int(k)))
		counts.SumY2 += fa * fb
		ca += fa * fb * fb
		cb += fb * fa * fa
		if w == nil {
			continue
		}
		A, Qa, B, Qb := fa, fa, fb, fb
		if scanW != nil {
			A, Qa = a.sum[k], a.sq[k]
		} else {
			B, Qb = 0, 0
			for _, row := range ix.BucketRows(int(k)) {
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

// tally is a bucket tally's scratch: count[k] scanned rows landed in
// bucket k, and touched lists the buckets with a nonzero count in the
// order they were first touched, so reading and clearing a tally costs
// what the scan touched, not the index's bucket count. A weighted tally
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

// scanPart is the scan of a factorizable plan's enumerated steps: it scans
// chunk part of parts of the first step's candidates and, when a second
// step is enumerated, reads the bucket of every row that passes the first
// step's residual predicates — the second step's index bucket of the
// row's key code — adding one to bucket k of t (and, when w is non-nil,
// the row's weight w(row) and its square to the bucket's sums) for a row
// whose bucket k holds rows. It returns the number of prefix assignments
// the chunk makes (b_k per row landing in bucket k; one per passing row
// when only one step is enumerated) and, when rowOut is non-nil, stores
// every passing row's count times the folded tail's factor in
// rowOut[row].
func (p *termPlan) scanPart(part, parts int, t *tally, rowOut []float64, w func(row int) float64) int {
	first := &p.steps[0]
	var ev *termEval
	if len(first.preds) > 0 {
		ev = p.newEval()
	}
	var ix *relation.Index
	var probe []int32 // the scanned rows' key codes, when a second step is enumerated
	if p.enumUpto == 2 {
		ix, probe = p.steps[1].index.get(), p.steps[1].probe
	}
	cands := p.cand[first.occ]
	lo, hi := chunk(len(cands), part, parts)
	n := 0
	for _, row := range cands[lo:hi] {
		if ev != nil {
			ev.assign[first.occ] = row
			if !ev.holds(0) {
				continue
			}
		}
		c := 1
		if ix != nil {
			k := ix.Bucket(probe[row])
			if k < 0 {
				continue
			}
			if c = ix.BucketLen(k); c == 0 {
				continue // the key's rows all sit in other parts of a Split
			}
			t.add(k, 1)
			if w != nil {
				x := w(row)
				t.sum[k] += x
				t.sq[k] += x * x
			}
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
// candidates once, reads each one's bucket of the second step's index
// (scanPart, the loop PairMoments runs), and counts per bucket — a_k
// scanned rows land in bucket k of size b_k, so a scanned row's marginal is b_k, an indexed
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
		t = newTally(p.steps[1].index.get().Buckets(), false)
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
	ix := second.index.get()
	for _, k := range t.touched {
		w := float64(t.count[k]) * p.tailFactor
		for _, row := range ix.BucketRows(int(k)) {
			rows[row] = w
		}
	}
	return prefix
}

// PlanCache caches compiled term plans per (term, instances) pair, by
// identity: an entry matches the term's pointer and every instance's. One
// estimate evaluates the same (term, instances) pairs several times — the
// point estimate, the closed-form variance passes, the jackknife's moment
// or enumeration pass and the split-sample pass that restricts each plan
// to its replicates (PreparedTerm.Split) — and the cache makes each pair
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
