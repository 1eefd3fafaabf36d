package algebra

import (
	"slices"

	"relest/internal/relation"
)

// Polynomial fusion: a rewrite of a normalized COUNT polynomial into
// fewer terms that count the same thing over any catalog whose named
// relations are duplicate-free. It runs in two steps.
//
// Identity collapse. ∩ expands into the tuple-identity constraint
// 1[t = u], so a set operation over selections of one relation R yields
// terms in which two occurrences of R are equated on every column. When
// R holds no two equal rows, t = u means t and u are one row, and the
// occurrences collapse into one that carries both occurrences' local
// predicates:
//
//	Σ_{t,u∈R} 1[t = u]·σ₁(t)·σ₂(u) = Σ_{t∈R} σ₁(t)·σ₂(t).
//
// Skeleton fusion. After the collapse, terms that agree on occurrences,
// equalities, residual predicates and every occurrence's local
// predicates but one occurrence's merge into one term whose assignments
// count the integer weight
//
//	w(r) = Σ_j c_j·Π_{σ ∈ σ_j} 1[σ(r)]
//
// of the row they bind that occurrence to, c_j the merged terms'
// coefficients and σ_j their local predicates there (Term.Weight).
// Merged terms with the same predicates add their coefficients, and a
// term whose coefficients cancel drops out. An estimator weights the
// row as SUM weights it by a column: count(join(σ₁(R) ∪ σ₂(R), S)) is
// sum(join(R', S), w) with R' = R plus a column holding w.
//
// Terms are compared by the provenance of their predicates (predID), not
// by what the predicates test: a term whose predicates Normalize did not
// name (one built by hand) is left as it is.

// Weight is an integer weight on the rows of one occurrence of a term:
// row r weighs the sum of Parts[j].Coef over the parts whose predicates
// all hold on r.
type Weight struct {
	Occ   int
	Parts []WeightPart
}

// WeightPart is one summand of a Weight: Coef on the rows that pass
// every one of Preds.
type WeightPart struct {
	Coef  int
	Preds []RowFilter
	ids   []predID
}

// rows returns the weight of every row of r that cand lists (ascending),
// as a vector over all of r's rows; an unlisted row weighs 0. Each part
// filters its own copy of cand, so the vector costs one typed list pass
// per part and predicate, and its floats are small integers, exact.
func (w *Weight) rows(r *relation.Relation, cand []int) []float64 {
	vec := make([]float64, r.Len())
	var buf []int
	for _, part := range w.Parts {
		rows := append(buf[:0], cand...)
		for _, f := range part.Preds {
			rows = f(r, rows)
		}
		for _, row := range rows {
			vec[row] += float64(part.Coef)
		}
		buf = rows
	}
	return vec
}

// Fuse rewrites p into a polynomial that counts the same over every
// catalog in which each relation that duplicateFree accepts holds no two
// equal rows (see the top of this file). duplicateFree is asked only
// about a relation some term equates two occurrences of on every column,
// so a polynomial without such a term costs no check; it may be asked
// about one relation more than once, and a costly predicate memoizes its
// answers. Terms already weighted, and p itself when nothing fuses, are
// returned as they are.
func Fuse(p Polynomial, duplicateFree func(rel string) bool) Polynomial {
	terms := make([]Term, 0, len(p.Terms))
	collapsed := false
	for _, t := range p.Terms {
		if c, ok := collapse(t, duplicateFree); ok {
			t, collapsed = c, true
		}
		terms = append(terms, t)
	}
	if !collapsed {
		return p
	}
	return Polynomial{Terms: fuseSkeletons(terms)}
}

// collapse merges the occurrences of t that are equated on every column
// with an earlier occurrence of the same duplicate-free relation into
// that occurrence (see the top of this file). It reports false when no
// occurrence merges.
func collapse(t Term, setRel func(string) bool) (Term, bool) {
	if t.Weight != nil {
		return t, false
	}
	// Union-find over occurrence columns, joined by the equalities.
	off := make([]int, len(t.Occs)+1)
	for i, o := range t.Occs {
		off[i+1] = off[i] + o.Schema.Len()
	}
	col := make([]int, off[len(t.Occs)])
	for i := range col {
		col[i] = i
	}
	find := func(x int) int {
		for col[x] != x {
			col[x] = col[col[x]]
			x = col[x]
		}
		return x
	}
	for _, eq := range t.Eqs {
		a, b := find(off[eq.A.Occ]+eq.A.Col), find(off[eq.B.Occ]+eq.B.Col)
		col[max(a, b)] = min(a, b)
	}
	// rep[j] is the occurrence j merges into: the first one it is
	// identical to, or itself.
	rep := make([]int, len(t.Occs))
	merged := false
	for j, oj := range t.Occs {
		rep[j] = j
		for i := 0; i < j && rep[j] == j; i++ {
			oi := t.Occs[i]
			if rep[i] != i || oi.RelName != oj.RelName || !oi.Schema.EqualLayout(oj.Schema) {
				continue
			}
			same := true
			for c := 0; c < oi.Schema.Len() && same; c++ {
				same = find(off[i]+c) == find(off[j]+c)
			}
			if same && setRel(oj.RelName) {
				rep[j], merged = i, true
			}
		}
	}
	if !merged {
		return t, false
	}

	idx := make([]int, len(t.Occs)) // old occurrence → new
	out := Term{Coef: t.Coef}
	for j, o := range t.Occs {
		if rep[j] != j {
			idx[j] = idx[rep[j]]
			dst := &out.Occs[idx[j]]
			named := len(dst.ids) == len(dst.LocalPreds) && len(o.ids) == len(o.LocalPreds)
			for k, f := range o.LocalPreds {
				if named && slices.ContainsFunc(dst.ids, o.ids[k].equal) {
					continue
				}
				dst.LocalPreds = append(dst.LocalPreds, f)
				if named {
					dst.ids = append(dst.ids, o.ids[k])
				}
			}
			if !named {
				dst.ids = nil
			}
			continue
		}
		idx[j] = len(out.Occs)
		o.LocalPreds = slices.Clone(o.LocalPreds)
		o.ids = slices.Clone(o.ids)
		out.Occs = append(out.Occs, o)
	}
	remap := func(r ColRef) ColRef { return ColRef{Occ: idx[r.Occ], Col: r.Col} }
	for _, eq := range t.Eqs {
		e := canonicalEq(EqCol{A: remap(eq.A), B: remap(eq.B)})
		if e.A != e.B && !slices.Contains(out.Eqs, e) {
			out.Eqs = append(out.Eqs, e)
		}
	}
	for _, pr := range t.Preds {
		occs := make([]int, len(pr.Occs))
		for i, o := range pr.Occs {
			occs[i] = idx[o]
		}
		out.Preds = append(out.Preds, TermPred{Eval: pr.Eval, Occs: occs, id: pr.id})
	}
	for _, r := range t.Out {
		out.Out = append(out.Out, remap(r))
	}
	return out, true
}

// canonicalEq orients an equality with its smaller column reference
// first.
func canonicalEq(e EqCol) EqCol {
	if e.B.Occ < e.A.Occ || (e.B.Occ == e.A.Occ && e.B.Col < e.A.Col) {
		e.A, e.B = e.B, e.A
	}
	return e
}

// fuseSkeletons merges terms that differ only in one occurrence's local
// predicates into weighted terms (see the top of this file). It fuses at
// the one occurrence position that leaves the fewest terms, the first
// such on ties; each term joins the first earlier group it agrees with
// there, and the groups keep their first term's place.
func fuseSkeletons(terms []Term) []Term {
	best, bestGroups := -1, [][]int(nil)
	for p := 0; p < maxOccs(terms); p++ {
		if groups := groupSkeletons(terms, p); best < 0 || len(groups) < len(bestGroups) {
			best, bestGroups = p, groups
		}
	}
	if best < 0 || len(bestGroups) == len(terms) {
		return terms
	}
	var out []Term
	for _, g := range bestGroups {
		if len(g) == 1 {
			out = append(out, terms[g[0]])
			continue
		}
		if t, ok := fuseGroup(terms, g, best); ok {
			out = append(out, t)
		}
	}
	return out
}

func maxOccs(terms []Term) int {
	m := 0
	for _, t := range terms {
		m = max(m, len(t.Occs))
	}
	return m
}

// groupSkeletons groups the terms that agree everywhere but in the local
// predicates of occurrence p, each term joining the first group whose
// first term it agrees with.
func groupSkeletons(terms []Term, p int) [][]int {
	var groups [][]int
	for i := range terms {
		joined := false
		for g := range groups {
			if sameSkeleton(&terms[groups[g][0]], &terms[i], p) {
				groups[g] = append(groups[g], i)
				joined = true
				break
			}
		}
		if !joined {
			groups = append(groups, []int{i})
		}
	}
	return groups
}

// sameSkeleton reports whether unweighted terms a and b, their predicates
// all named, have the same occurrences, equalities and residual
// predicates, and the same local predicates on every occurrence but p.
func sameSkeleton(a, b *Term, p int) bool {
	if !fusable(a, p) || !fusable(b, p) || len(a.Occs) != len(b.Occs) {
		return false
	}
	for i := range a.Occs {
		oa, ob := &a.Occs[i], &b.Occs[i]
		if oa.RelName != ob.RelName || !oa.Schema.EqualLayout(ob.Schema) {
			return false
		}
		if i != p && !sameIDs(oa.ids, ob.ids) {
			return false
		}
	}
	if !sameEqs(a.Eqs, b.Eqs) || len(a.Preds) != len(b.Preds) {
		return false
	}
	for _, pa := range a.Preds {
		if !slices.ContainsFunc(b.Preds, func(pb TermPred) bool {
			return pa.id.equal(pb.id) && slices.Equal(pa.Occs, pb.Occs)
		}) {
			return false
		}
	}
	return true
}

// fusable reports whether t can join a group fused at occurrence p: it is
// unweighted, has an occurrence p, and every predicate it holds is named.
func fusable(t *Term, p int) bool {
	if t.Weight != nil || p >= len(t.Occs) {
		return false
	}
	for _, o := range t.Occs {
		if len(o.ids) != len(o.LocalPreds) {
			return false
		}
	}
	for _, pr := range t.Preds {
		if pr.id.src == nil {
			return false
		}
	}
	return true
}

// sameIDs reports whether two lists name the same predicates, in any
// order.
func sameIDs(a, b []predID) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !slices.ContainsFunc(b, x.equal) {
			return false
		}
	}
	for _, y := range b {
		if !slices.ContainsFunc(a, y.equal) {
			return false
		}
	}
	return true
}

// sameEqs reports whether two equality lists state the same equalities,
// in any order and orientation.
func sameEqs(a, b []EqCol) bool {
	has := func(list []EqCol, e EqCol) bool {
		e = canonicalEq(e)
		return slices.ContainsFunc(list, func(f EqCol) bool { return canonicalEq(f) == e })
	}
	for _, e := range a {
		if !has(b, e) {
			return false
		}
	}
	for _, e := range b {
		if !has(a, e) {
			return false
		}
	}
	return true
}

// fuseGroup merges the group's terms into one term weighted at
// occurrence p, its skeleton the first term's. Terms with the same
// predicates at p add their coefficients; it reports false when every
// sum is zero, so the group counts nothing. A group left with one part
// of coefficient ±1 is a plain term with that part's predicates.
func fuseGroup(terms []Term, group []int, p int) (Term, bool) {
	var parts []WeightPart
	for _, i := range group {
		o := &terms[i].Occs[p]
		k := slices.IndexFunc(parts, func(w WeightPart) bool { return sameIDs(w.ids, o.ids) })
		if k < 0 {
			parts = append(parts, WeightPart{Preds: o.LocalPreds, ids: o.ids})
			k = len(parts) - 1
		}
		parts[k].Coef += terms[i].Coef
	}
	parts = slices.DeleteFunc(parts, func(w WeightPart) bool { return w.Coef == 0 })
	if len(parts) == 0 {
		return Term{}, false
	}
	t := terms[group[0]]
	t.Occs = slices.Clone(t.Occs)
	if len(parts) == 1 && (parts[0].Coef == 1 || parts[0].Coef == -1) {
		t.Coef = parts[0].Coef
		t.Occs[p].LocalPreds, t.Occs[p].ids = parts[0].Preds, parts[0].ids
		return t, true
	}
	t.Coef = 1
	t.Occs[p].LocalPreds, t.Occs[p].ids = nil, nil
	t.Weight = &Weight{Occ: p, Parts: parts}
	return t, true
}
