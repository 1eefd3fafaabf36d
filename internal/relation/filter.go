package relation

import (
	"fmt"
	"math"
)

// Typed list kernels: term evaluation's σ scan and join probe read the
// column vectors directly, over whole lists of logical rows, with the view
// indirection hoisted out of the row loop and no Value boxed. Each kernel
// agrees exactly with the Value.Compare / Value.Equal semantics of the
// row-at-a-time path it replaces.

// FilterCmp filters rows — logical positions of r, in any order — in place
// and returns the rows it keeps, in their order: those whose cell in
// column c is non-null and compares to the constant k with a three-way
// result cmp (Value.Compare's) for which keep[cmp+1] holds. A null constant keeps nothing, as null
// cells never do (comparisons with null are false).
//
// The comparison reads the typed vector: ints against an Int compare as
// int64, any other numeric pair as float64 (NaN compares 0, as in
// Compare) where float64 orders it exactly, and through cmpIntFloat, as
// Compare does, where an int past ±2^53 meets a float; strings compare in
// place through the dictionary, and a numeric cell against a string
// constant (or the reverse) takes Compare's cross-kind order, numerics
// below strings, without reading the cell.
func (r *Relation) FilterCmp(rows []int, c int, k Value, keep [3]bool) []int {
	col := &r.cols[c]
	if k.IsNull() || col.kind == KindNull {
		return rows[:0]
	}
	numeric := k.kind != KindString
	switch col.kind {
	case KindInt:
		switch {
		case !numeric:
			return filterNonNull(rows, r.view, col.nulls, keep[0])
		case k.kind == KindInt:
			return filterOrdered(rows, r.view, col.nulls, col.ints, k.i, keep)
		case math.Abs(k.f) < 1<<53 || math.IsNaN(k.f):
			return filterOrdered(rows, r.view, col.nulls, col.ints, k.f, keep)
		default:
			return filterMixed(rows, r.view, col.nulls, col.ints, func(x int64) int { return cmpIntFloat(x, k.f) }, keep)
		}
	case KindFloat:
		switch {
		case !numeric:
			return filterNonNull(rows, r.view, col.nulls, keep[0])
		case k.kind == KindFloat:
			return filterOrdered(rows, r.view, col.nulls, col.floats, k.f, keep)
		}
		if f, exact := exactFloat(k.i); exact {
			return filterOrdered(rows, r.view, col.nulls, col.floats, f, keep)
		}
		return filterMixed(rows, r.view, col.nulls, col.floats, func(x float64) int { return -cmpIntFloat(k.i, x) }, keep)
	case KindString:
		if numeric {
			return filterNonNull(rows, r.view, col.nulls, keep[2])
		}
		return filterStrings(rows, r.view, col.nulls, col.codes, col.dict.strs, k.s, keep)
	default:
		panic(fmt.Sprintf("relation: FilterCmp on %s column", col.kind))
	}
}

// filterOrdered is FilterCmp over a numeric vector: each non-null cell is
// widened to the constant's type (int64 stays int64 against an Int, any
// other pair compares as float64) and ordered with < and >, so NaN and ±0
// compare 0 exactly as Value.Compare has them.
func filterOrdered[E, K int64 | float64](rows, view []int, nulls []uint64, vec []E, k K, keep [3]bool) []int {
	out := rows[:0]
	for _, i := range rows {
		p := i
		if view != nil {
			p = view[i]
		}
		if nulls != nil && bitAt(nulls, p) {
			continue
		}
		x, v := K(vec[p]), 1
		if x < k {
			v = 0
		} else if x > k {
			v = 2
		}
		if keep[v] {
			out = append(out, i)
		}
	}
	return out
}

// filterMixed is FilterCmp over an Int/Float pair that float64 would
// round: each non-null cell is ordered against the constant by cmp, the
// exact three-way comparison of cell and constant.
func filterMixed[E int64 | float64](rows, view []int, nulls []uint64, vec []E, cmp func(E) int, keep [3]bool) []int {
	out := rows[:0]
	for _, i := range rows {
		p := i
		if view != nil {
			p = view[i]
		}
		if nulls != nil && bitAt(nulls, p) {
			continue
		}
		if keep[cmp(vec[p])+1] {
			out = append(out, i)
		}
	}
	return out
}

// filterStrings is FilterCmp over a dictionary column: each non-null
// cell's string is compared to k in place.
func filterStrings(rows, view []int, nulls []uint64, codes []uint32, strs []string, k string, keep [3]bool) []int {
	out := rows[:0]
	for _, i := range rows {
		p := i
		if view != nil {
			p = view[i]
		}
		if nulls != nil && bitAt(nulls, p) {
			continue
		}
		s, v := strs[codes[p]], 1
		if s < k {
			v = 0
		} else if s > k {
			v = 2
		}
		if keep[v] {
			out = append(out, i)
		}
	}
	return out
}

// filterNonNull keeps every non-null row when verdict holds and nothing
// otherwise: the constant-verdict case of a cross-kind comparison.
func filterNonNull(rows, view []int, nulls []uint64, verdict bool) []int {
	if !verdict {
		return rows[:0]
	}
	if nulls == nil {
		return rows
	}
	out := rows[:0]
	for _, i := range rows {
		p := i
		if view != nil {
			p = view[i]
		}
		if !bitAt(nulls, p) {
			out = append(out, i)
		}
	}
	return out
}

// FilterEqual filters rows — logical positions of r — in place, keeping
// those whose cells in columns a and b are Equal (null equals only null),
// compared typed (see equalCells).
func (r *Relation) FilterEqual(rows []int, a, b int) []int {
	ca, cb := &r.cols[a], &r.cols[b]
	out := rows[:0]
	for _, i := range rows {
		p := r.phys(i)
		if equalCells(ca, p, cb, p) {
			out = append(out, i)
		}
	}
	return out
}

// Float64 returns the numeric cell at row i, column c widened to float64,
// and false when the cell is null (with a zero value). It panics on a
// string column, like Value.Float64.
func (r *Relation) Float64(i, c int) (float64, bool) {
	col := &r.cols[c]
	p := r.phys(i)
	if col.isNull(p) {
		return 0, false
	}
	switch col.kind {
	case KindInt:
		return float64(col.ints[p]), true
	case KindFloat:
		return col.floats[p], true
	default:
		panic(fmt.Sprintf("relation: Float64 on %s column", col.kind))
	}
}
