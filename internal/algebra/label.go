package algebra

import (
	"fmt"
	"math"
	"slices"

	"relest/internal/parallel"
	"relest/internal/relation"
)

// Labelled is one pass of a compiled plan over every group of a row
// labelling (split-sample replicates): group l's assignments are the
// plan's assignments whose rows are all labelled l, which a plan compiled
// over the group's rows satisfies, visited in the full plan's step order.
// Candidate lists are laid out group by group, and a keyed step indexes
// its candidates by (group, code) keys l·K + code, K one more than the
// step's largest candidate code, on first use; a Pairs plan tallies the
// same keys instead (PairTotals). A Labelled is safe for concurrent use.
type Labelled struct {
	pt *PreparedTerm
	g  int
	// Per occurrence: every instance row's group, and the candidates group
	// by group, group l's at cand[occ][off[occ][l]:off[occ][l+1]].
	labels [][]int32
	cand   [][]int
	off    [][]int
	tail   []float64 // group → folded-tail factor
	// Per step: a keyed step's K and (group, code) index.
	width []int32
	index []*stepIndex
}

// Label prepares the plan's pass over g groups, labels[r][row] ∈ [0, g)
// labelling every row of every instance. It fails when g·K overflows int32.
func (pt *PreparedTerm) Label(g int, labels map[*relation.Relation][]int32) (*Labelled, error) {
	p := pt.p
	n := len(p.inst)
	lt := &Labelled{pt: pt, g: g, labels: make([][]int32, n), cand: make([][]int, n), off: make([][]int, n),
		tail: make([]float64, g), width: make([]int32, len(p.steps)), index: make([]*stepIndex, len(p.steps))}
	for occ, r := range p.inst {
		lt.labels[occ] = labels[r]
		lt.cand[occ], lt.off[occ] = byGroup(p.cand[occ], labels[r], g)
	}
	for k := range p.steps {
		st := &p.steps[k]
		if st.index == nil {
			continue
		}
		top := int32(-1)
		for _, row := range p.cand[st.occ] {
			top = max(top, st.codes[row])
		}
		if int64(g)*(int64(top)+1) > math.MaxInt32 {
			return nil, fmt.Errorf("algebra: %d groups of %d key codes overflow a labelled key", g, int64(top)+1)
		}
		width, rows, codes, lab, size := top+1, lt.cand[st.occ], st.codes, lt.labels[st.occ], p.inst[st.occ].Len()
		lt.width[k] = width
		lt.index[k] = &stepIndex{build: func() *relation.Index {
			keys := make([]int32, size)
			for _, row := range rows {
				keys[row] = lab[row]*width + codes[row]
			}
			return relation.NewIndex(keys, rows)
		}}
	}
	for l := range lt.tail {
		lt.tail[l] = 1
		for k := len(p.steps) - 1; k >= p.enumUpto; k-- {
			lt.tail[l] *= float64(len(lt.group(p.steps[k].occ, l)))
		}
	}
	return lt, nil
}

// byGroup lays rows out group by group by their labels, keeping their
// order within a group, and returns them with the g+1 group bounds.
func byGroup(rows []int, label []int32, g int) ([]int, []int) {
	off := make([]int, g+1)
	for _, row := range rows {
		off[label[row]+1]++
	}
	for l := 1; l <= g; l++ {
		off[l] += off[l-1]
	}
	out, cursor := make([]int, len(rows)), slices.Clone(off[:g])
	for _, row := range rows {
		out[cursor[label[row]]] = row
		cursor[label[row]]++
	}
	return out, off
}

// group returns occurrence occ's group-l candidates.
func (lt *Labelled) group(occ, l int) []int {
	return lt.cand[occ][lt.off[occ][l]:lt.off[occ][l+1]]
}

// candidatesAt is termEval.candidatesAt for group ev.l.
func (lt *Labelled) candidatesAt(ev *termEval, k int) []int {
	st := &ev.p.steps[k]
	if st.index == nil {
		return lt.group(st.occ, ev.l)
	}
	code, width := st.probe[ev.assign[st.probeOcc]], lt.width[k]
	if uint32(code) >= uint32(width) {
		return nil
	}
	return lt.index[k].get().Lookup(int32(ev.l)*width + code)
}

// parts is PreparedTerm.Parts of a plan compiled over group l's rows.
func (lt *Labelled) parts(l int) int {
	p := lt.pt.p
	if p.enumUpto == 0 || len(lt.group(p.steps[0].occ, l)) < partitionMinRows {
		return 1
	}
	return partitionParts
}

// Counts returns every group's satisfying assignments, exactly (integers
// below 2^53), from the pair tally of a Pairs plan and otherwise by
// counting each group's parts across up to workers goroutines.
func (lt *Labelled) Counts(workers int) []float64 {
	if lt.pt.Pairs() {
		return lt.PairTotals(nil)
	}
	return lt.fan(workers, func(ev *termEval, part, parts int) float64 {
		return ev.p.countPart(ev, part, parts, lt.tail[ev.l])
	})
}

// Sums returns every group l's sum of f(l, rows) over its assignments,
// added within each part, then in part order. f runs concurrently across
// up to workers goroutines and must not retain rows.
func (lt *Labelled) Sums(workers int, f func(l int, rows []int) float64) []float64 {
	return lt.fan(workers, func(ev *termEval, part, parts int) float64 {
		total := 0.0
		ev.p.enumerate(ev, part, parts, len(ev.p.steps), func(rows []int) bool {
			total += f(ev.l, rows)
			return true
		})
		return total
	})
}

// fan runs each on every part of every group, on up to workers
// goroutines, and adds each group's parts in part order.
func (lt *Labelled) fan(workers int, each func(ev *termEval, part, parts int) float64) []float64 {
	type unit struct{ l, part, parts int }
	var units []unit
	for l := 0; l < lt.g; l++ {
		for part, parts := 0, lt.parts(l); part < parts; part++ {
			units = append(units, unit{l, part, parts})
		}
	}
	partial := make([]float64, len(units))
	parallel.For(len(units), workers, func(i int) {
		u := units[i]
		ev := lt.pt.p.newEval()
		ev.lab, ev.l = lt, u.l
		partial[i] = each(ev, u.part, u.parts)
	})
	out := make([]float64, lt.g)
	for i, u := range units {
		out[u.l] += partial[i]
	}
	return out
}

// PairTotals returns every group's PairMoments(w).Total for a Pairs plan
// from one tally keyed by (group, code): T_l = Σ_k a_{l,k}·b_{l,k}, one
// scan per side. Weights are summed per key in ascending row order and
// group l's products in the order its scan first paired them, as
// PairMoments sums a one-part plan of the group's rows.
func (lt *Labelled) PairTotals(w *RowWeight) []float64 {
	p := lt.pt.p
	first, second := &p.steps[0], &p.steps[1]
	scanW, indexW := p.weightSides(w, "PairTotals")
	width := int(lt.width[1])
	lab0, lab1 := lt.labels[first.occ], lt.labels[second.occ]
	a, b := make([]int32, lt.g*width), make([]int32, lt.g*width)
	for _, row := range p.cand[second.occ] {
		b[int(lab1[row])*width+int(second.codes[row])]++
	}
	var sum []float64
	if w != nil {
		sum = make([]float64, len(b))
	}
	var order []int // (group, code) keys in the order the scan first paired them
	lt.pt.scan(func(_ int, rows []int) {
		for _, row := range rows {
			k := int(second.probe[row])
			if k >= width {
				continue
			}
			if c := int(lab0[row])*width + k; b[c] > 0 {
				if a[c] == 0 {
					order = append(order, c)
				}
				a[c]++
				if scanW != nil {
					sum[c] += scanW(row)
				}
			}
		}
	})
	if indexW != nil {
		for _, row := range p.cand[second.occ] {
			if c := int(lab1[row])*width + int(second.codes[row]); a[c] > 0 {
				sum[c] += indexW(row)
			}
		}
	}
	total := make([]float64, lt.g)
	for _, c := range order {
		A, B := float64(a[c]), float64(b[c])
		if scanW != nil {
			A = sum[c]
		} else if indexW != nil {
			B = sum[c]
		}
		total[c/width] += A * B
	}
	for l, tail := range lt.tail {
		total[l] *= tail
	}
	return total
}
