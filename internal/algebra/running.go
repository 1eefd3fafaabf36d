package algebra

import (
	"fmt"
	"slices"

	"relest/internal/relation"
)

// RunningTally is the bucket tally of a pair-shaped COUNT term carried
// across samples that only grow: GUS's keyed group sums (a_k, b_k) for
// the two joined occurrences, and the integer moments the COUNT closed
// forms read off them, updated row by row as rows arrive. A term is
// pair-shaped when every equality between two of its occurrences joins
// the same two, x and y, and no residual predicate spans occurrences: its
// satisfying assignments are the pairs of x and y candidates whose keys
// share a code, times every candidate of each other occurrence. Any plan
// of such a term counts that number, whichever order it chose.
//
// Advance takes the instances of one round. Each must hold the rows the
// previous round's instance held, in the same positions, followed by the
// rows added since (relation.Relation.Extend grows a sample view this
// way); only those new rows are filtered, coded and tallied, so a round
// costs what it appended, not what it holds. Adding one row to bucket k on
// x's side (a_k += 1) adds b_k to T = Σ a_k·b_k, b_k² to Σ a_k·b_k² and
// b_k·(2a_k + 1) to Σ b_k·a_k²; a row on y's side is the mirror image.
// Every sum is an integer below 2^53, so the moments equal a fresh
// PreparedTerm.PairMoments of the same rows exactly.
//
// A RunningTally is not safe for concurrent use.
type RunningTally struct {
	t    *Term
	keys *relation.KeyDomain
	// side[occ] is 0 for x, 1 for y and -1 for an occurrence the term only
	// multiplies by its candidate count; cols[s] are side s's key columns,
	// aligned column by column with the other side's.
	side  []int
	cols  [2][]int
	intra [][]EqCol
	// held[occ] is the number of instance rows consumed; cand[occ] counts
	// the candidates among them of an occurrence on neither side.
	held []int
	cand []int
	// rows is the candidate scratch a round filters its new rows in.
	rows []int
	// count[s][k] is the number of side s's candidates whose key code is
	// k; pairs is T, and sq[s] is Σ_k count[s][k]·count[1−s][k]², the
	// sum over side s's rows of their squared partner counts.
	count [2][]int32
	pairs int64
	sq    [2]int64
}

// NewRunningTally returns an empty running tally of the pair-shaped term
// t whose join keys are coded in keys, or false when t is not
// pair-shaped.
func NewRunningTally(t *Term, keys *relation.KeyDomain) (*RunningTally, bool) {
	if len(t.Preds) > 0 {
		return nil, false
	}
	rt := &RunningTally{
		t:     t,
		keys:  keys,
		side:  make([]int, len(t.Occs)),
		intra: intraEqualities(t),
		held:  make([]int, len(t.Occs)),
		cand:  make([]int, len(t.Occs)),
	}
	x, y := -1, -1
	for _, eq := range t.Eqs {
		a, b := eq.A, eq.B
		if a.Occ == b.Occ {
			continue
		}
		if x < 0 {
			x, y = a.Occ, b.Occ
		}
		if a.Occ == y && b.Occ == x {
			a, b = b, a
		}
		if a.Occ != x || b.Occ != y {
			return nil, false
		}
		rt.cols[0] = append(rt.cols[0], a.Col)
		rt.cols[1] = append(rt.cols[1], b.Col)
	}
	if x < 0 {
		return nil, false
	}
	for occ := range rt.side {
		rt.side[occ] = -1
	}
	rt.side[x], rt.side[y] = 0, 1
	return rt, true
}

// Advance tallies the rows each instance added since the last call (see
// RunningTally) and returns the term's moments over all the rows held:
// what PreparedTerm.PairMoments(workers, nil) of a plan over inst
// returns for its counts, bit for bit, with the other occurrences'
// candidate counts as the folded tail's factor.
func (rt *RunningTally) Advance(inst Instances) PairMoments {
	if len(inst) != len(rt.side) {
		panic(fmt.Sprintf("algebra: running tally of %d occurrences advanced with %d instances", len(rt.side), len(inst)))
	}
	for occ, r := range inst {
		from := rt.held[occ]
		if r.Len() < from {
			panic(fmt.Sprintf("algebra: running tally's instance %s shrank from %d to %d rows", r.Name(), from, r.Len()))
		}
		if r.Len() == from {
			continue
		}
		rows := occCandidates(rt.t, occ, rt.intra[occ], r, from, rt.rows)
		rt.rows = rows
		rt.held[occ] = r.Len()
		s := rt.side[occ]
		if s < 0 {
			rt.cand[occ] += len(rows)
			continue
		}
		rt.add(s, rows, r.KeyCodes(rt.cols[s], rt.keys))
	}
	return rt.moments()
}

// add tallies side s's new candidates rows, whose key codes codes holds:
// each adds one to its code's count, and the moments move by the O(1)
// updates RunningTally describes.
func (rt *RunningTally) add(s int, rows []int, codes []int32) {
	own, other := rt.count[s], rt.count[1-s]
	pairs, sqOwn, sqOther := rt.pairs, rt.sq[s], rt.sq[1-s]
	for _, row := range rows {
		k := int(codes[row])
		if k >= len(own) {
			own = slices.Grow(own, k+1-len(own))[:k+1]
		}
		a, b := int64(own[k]), int64(0)
		if k < len(other) {
			b = int64(other[k])
		}
		own[k]++
		pairs += b
		sqOwn += b * b
		sqOther += b * (2*a + 1)
	}
	rt.count[s] = own
	rt.pairs, rt.sq[s], rt.sq[1-s] = pairs, sqOwn, sqOther
}

// moments returns the tally's PairMoments: T times the other
// occurrences' candidate counts, and the pair's sums with the tail left
// out (all zero when some other occurrence has no candidate, as a plan
// with an empty folded tail reports).
func (rt *RunningTally) moments() PairMoments {
	pm := PairMoments{SumSq: make([]float64, len(rt.side))}
	tail := 1.0
	for occ, s := range rt.side {
		if s < 0 {
			tail *= float64(rt.cand[occ])
		}
	}
	//lint:ignore floateq exact sentinel: a zero tail factor means an empty folded tail, as in PairMoments
	if tail == 0 {
		return pm
	}
	pm.Total = float64(rt.pairs) * tail
	pm.SumY2 = float64(rt.pairs)
	for occ, s := range rt.side {
		if s >= 0 {
			pm.SumSq[occ] = float64(rt.sq[s])
		}
	}
	return pm
}
