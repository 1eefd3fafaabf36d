package algebra

import (
	"fmt"
	"slices"

	"relest/internal/relation"
)

// This file implements the reduction of COUNT(E) to a counting polynomial:
//
//	COUNT(E) = Σ_j coef_j · T_j,   coef_j ∈ {+1, −1},
//
// where each term T_j sums a conjunctive 0/1 indicator over the cross
// product of a multiset of base-relation occurrences:
//
//	T_j = Σ_{(t_1..t_m) ∈ R_{a1} × … × R_{am}} ψ_j(t_1..t_m).
//
// ψ_j is a conjunction of per-occurrence selection predicates, column
// equality constraints (from equi-joins and from the tuple-identity
// equalities that ∩ expands into), and residual multi-occurrence
// predicates. The rewrite uses
//
//	|A ∪ B| = |A| + |B| − |A ∩ B|
//	|A − B| = |A| − |A ∩ B|
//	|A ∩ B| = Σ_{t∈A, u∈B} 1[t = u]
//
// applied recursively; the pairing of ∩ distributes over the operand
// polynomials because the pointwise multiplicity of every π-free
// set-semantics expression is 0/1 and decomposes linearly over its terms.
//
// The polynomial is exact: evaluated over the full relations with unit
// weights it reproduces COUNT(E) (tested against the exact evaluator).
// Evaluated over SRSWOR samples with the falling-factorial pattern weights
// (package estimator) it yields the paper's unbiased estimator.

// ColRef identifies one column of one occurrence within a term.
type ColRef struct {
	Occ int // occurrence index within the term
	Col int // column position within that occurrence's base schema
}

// Occurrence is one use of a base relation inside a term. LocalPreds are
// selection conditions that constrain this occurrence alone and can be
// applied before any joining; each filters a list of the occurrence
// instance's rows in place (see RowFilter).
type Occurrence struct {
	RelName    string
	Schema     *relation.Schema
	LocalPreds []RowFilter
	// ids names each of LocalPreds by where it came from (predID), for
	// Fuse to compare terms by; a hand-built occurrence has none, and
	// Fuse leaves a term with an unnamed predicate as it is.
	ids []predID
}

// EqCol is an equality constraint between two occurrence columns.
type EqCol struct {
	A, B ColRef
}

// TermPred is a residual predicate spanning multiple occurrences. Eval is
// called with one row per entry of Occs: rows[i] is the assigned row of
// occurrence Occs[i]. Combining terms shifts Occs; Eval never changes.
type TermPred struct {
	Eval func([]relation.Row) bool
	Occs []int
	id   predID
}

// predID names a predicate attached to a term: the σ or θ node it was
// bound from (its boundPred) and the position map it was bound with (at:
// the slot and column each position it reads reads; zero elsewhere). Two
// attachments with equal IDs test one condition on the same cells of the
// same slots.
type predID struct {
	src *boundPred
	at  []ColRef
}

func (a predID) equal(b predID) bool {
	return a.src != nil && a.src == b.src && slices.Equal(a.at, b.at)
}

// Term is one conjunctive summand of a counting polynomial.
type Term struct {
	Coef  int
	Occs  []Occurrence
	Eqs   []EqCol
	Preds []TermPred
	// Out maps the (virtual) output columns of the originating
	// subexpression to occurrence columns; ∩-pairing consumes it.
	Out []ColRef
	// Weight, when set, weights every satisfying assignment by the weight
	// of the row it binds occurrence Weight.Occ to, in place of 1: the
	// term counts Coef·Σ_A W(A[Weight.Occ]). Only Fuse makes weighted
	// terms (see fuse.go).
	Weight *Weight
}

// Polynomial is a sum of conjunctive terms with integer coefficients:
// ±1 as Normalize makes them, a row weight on one occurrence where Fuse
// merged terms.
type Polynomial struct {
	Terms []Term
}

// NumTerms returns the number of terms.
func (p Polynomial) NumTerms() int { return len(p.Terms) }

// RelationNames returns the set of base relations used by any term.
func (p Polynomial) RelationNames() []string {
	seen := map[string]struct{}{}
	var out []string
	for _, t := range p.Terms {
		for _, o := range t.Occs {
			if _, dup := seen[o.RelName]; !dup {
				seen[o.RelName] = struct{}{}
				out = append(out, o.RelName)
			}
		}
	}
	return out
}

// MaxOccurrences returns the largest number of occurrences of a single
// relation within one term — the degree of the U-statistic correction the
// estimator will need.
func (p Polynomial) MaxOccurrences() int {
	m := 0
	for _, t := range p.Terms {
		byRel := map[string]int{}
		for _, o := range t.Occs {
			byRel[o.RelName]++
			if byRel[o.RelName] > m {
				m = byRel[o.RelName]
			}
		}
	}
	return m
}

// Normalize rewrites COUNT(e) into a counting polynomial. It fails for
// expressions containing π (projection/duplicate elimination), whose counts
// are distinct-counts and are handled by the dedicated distinct estimators.
func Normalize(e *Expr) (Polynomial, error) {
	if e.HasProjection() {
		return Polynomial{}, fmt.Errorf("algebra: COUNT over π is a distinct-count; use the distinct estimators")
	}
	return normalize(e)
}

func normalize(e *Expr) (Polynomial, error) {
	switch e.op {
	case OpBase:
		out := make([]ColRef, e.schema.Len())
		for i := range out {
			out[i] = ColRef{Occ: 0, Col: i}
		}
		return Polynomial{Terms: []Term{{
			Coef: 1,
			Occs: []Occurrence{{RelName: e.relName, Schema: e.schema}},
			Out:  out,
		}}}, nil

	case OpSelect:
		child, err := normalize(e.left)
		if err != nil {
			return Polynomial{}, err
		}
		for i := range child.Terms {
			if err := attachPredicate(&child.Terms[i], &e.pred, e.left.schema); err != nil {
				return Polynomial{}, err
			}
		}
		return child, nil

	case OpProduct, OpJoin:
		left, err := normalize(e.left)
		if err != nil {
			return Polynomial{}, err
		}
		right, err := normalize(e.right)
		if err != nil {
			return Polynomial{}, err
		}
		var terms []Term
		for _, lt := range left.Terms {
			for _, rt := range right.Terms {
				t := combineTerms(lt, rt)
				if e.op == OpJoin {
					shift := len(lt.Occs)
					for i := range e.joinLeft {
						t.Eqs = append(t.Eqs, EqCol{
							A: lt.Out[e.joinLeft[i]],
							B: shiftRef(rt.Out[e.joinRight[i]], shift),
						})
					}
					if e.theta.eval != nil {
						if err := attachPredicate(&t, &e.theta, e.schema); err != nil {
							return Polynomial{}, err
						}
					}
				}
				terms = append(terms, t)
			}
		}
		return Polynomial{Terms: terms}, nil

	case OpUnion:
		left, err := normalize(e.left)
		if err != nil {
			return Polynomial{}, err
		}
		right, err := normalize(e.right)
		if err != nil {
			return Polynomial{}, err
		}
		inter := intersectPoly(left, right)
		terms := append(append([]Term{}, left.Terms...), right.Terms...)
		terms = append(terms, negate(inter).Terms...)
		return Polynomial{Terms: terms}, nil

	case OpDiff:
		left, err := normalize(e.left)
		if err != nil {
			return Polynomial{}, err
		}
		right, err := normalize(e.right)
		if err != nil {
			return Polynomial{}, err
		}
		inter := intersectPoly(left, right)
		terms := append([]Term{}, left.Terms...)
		terms = append(terms, negate(inter).Terms...)
		return Polynomial{Terms: terms}, nil

	case OpIntersect:
		left, err := normalize(e.left)
		if err != nil {
			return Polynomial{}, err
		}
		right, err := normalize(e.right)
		if err != nil {
			return Polynomial{}, err
		}
		return intersectPoly(left, right), nil

	default:
		return Polynomial{}, fmt.Errorf("algebra: cannot normalize op %s", e.op)
	}
}

// combineTerms concatenates two terms into a cross-product term, shifting
// the right term's occurrence indices. All constraint slices are copied so
// terms remain independent.
func combineTerms(l, r Term) Term {
	shift := len(l.Occs)
	t := Term{Coef: l.Coef * r.Coef}
	t.Occs = append(append([]Occurrence{}, l.Occs...), r.Occs...)
	t.Eqs = append([]EqCol{}, l.Eqs...)
	for _, eq := range r.Eqs {
		t.Eqs = append(t.Eqs, EqCol{A: shiftRef(eq.A, shift), B: shiftRef(eq.B, shift)})
	}
	t.Preds = append([]TermPred{}, l.Preds...)
	for _, p := range r.Preds {
		occs := make([]int, len(p.Occs))
		for i, o := range p.Occs {
			occs[i] = o + shift
		}
		t.Preds = append(t.Preds, TermPred{Eval: p.Eval, Occs: occs, id: p.id})
	}
	t.Out = append([]ColRef{}, l.Out...)
	t.Out = append(t.Out, shiftRefs(r.Out, shift)...)
	return t
}

// intersectPoly builds the polynomial for |A ∩ B| from the operand
// polynomials: every pair of terms is combined and the output columns are
// pairwise equated (the tuple-identity constraint 1[t = u]).
func intersectPoly(a, b Polynomial) Polynomial {
	var terms []Term
	for _, at := range a.Terms {
		for _, bt := range b.Terms {
			t := combineTerms(at, bt)
			shift := len(at.Occs)
			for i := range at.Out {
				t.Eqs = append(t.Eqs, EqCol{A: at.Out[i], B: shiftRef(bt.Out[i], shift)})
			}
			// The two halves are constrained equal; expose the left half as
			// the output so nested set operations keep working.
			t.Out = t.Out[:len(at.Out)]
			terms = append(terms, t)
		}
	}
	return Polynomial{Terms: terms}
}

// negate flips the sign of every term.
func negate(p Polynomial) Polynomial {
	terms := make([]Term, len(p.Terms))
	for i, t := range p.Terms {
		terms[i] = t
		terms[i].Coef = -t.Coef
	}
	return Polynomial{Terms: terms}
}

// attachPredicate adds a selection predicate (bound against s, the output
// schema of the subexpression the term came from) to the term, rebinding it
// to read the term's occurrences in place. The distinct occurrences it reads
// are numbered as slots 0, 1, …, so the bound closure does not depend on
// where the occurrences sit in the term. A predicate reading one occurrence
// is pushed down as a list filter on it (bindFilter); otherwise it is kept
// as a residual term predicate. Either way it is named by bp and the
// slots and columns it reads (predID).
func attachPredicate(t *Term, bp *boundPred, s *relation.Schema) error {
	at := make([]ColRef, len(t.Out))
	var occs []int
	for _, c := range bp.cols {
		ref := t.Out[c]
		slot := slices.Index(occs, ref.Occ)
		if slot < 0 {
			slot = len(occs)
			occs = append(occs, ref.Occ)
		}
		at[c] = ColRef{Occ: slot, Col: ref.Col}
	}
	id := predID{src: bp, at: at}
	if len(occs) == 1 {
		f, err := bindFilter(bp.src, s, at)
		if err != nil {
			return fmt.Errorf("algebra: rebinding predicate: %w", err)
		}
		o := &t.Occs[occs[0]]
		// Clipped: terms copied from one another share these slices, and
		// an append must not write into a neighbour's spare room.
		o.LocalPreds = append(slices.Clip(o.LocalPreds), f)
		if len(o.ids) == len(o.LocalPreds)-1 {
			o.ids = append(slices.Clip(o.ids), id)
		}
		return nil
	}
	eval, err := bp.src.bind(s, at)
	if err != nil {
		return fmt.Errorf("algebra: rebinding predicate: %w", err)
	}
	t.Preds = append(t.Preds, TermPred{Eval: eval, Occs: occs, id: id})
	return nil
}

func shiftRef(r ColRef, by int) ColRef { return ColRef{Occ: r.Occ + by, Col: r.Col} }

func shiftRefs(rs []ColRef, by int) []ColRef {
	out := make([]ColRef, len(rs))
	for i, r := range rs {
		out[i] = shiftRef(r, by)
	}
	return out
}
