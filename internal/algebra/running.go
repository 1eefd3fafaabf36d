package algebra

import (
	"slices"

	"relest/internal/relation"
)

// pairTally is the pair tally of a two-occurrence equi-join: GUS's keyed
// group sums (a_k, b_k) for the two joined sides, kept per key code, and
// the integer moments every COUNT closed form reads off them. count[s][k]
// is the number of side s's rows whose key code is k, one array read per
// row however the codes were handed out; pairs is T = Σ_k a_k·b_k, and
// sq[s] is Σ_k count[s][k]·count[1−s][k]², the sum over side s's rows of
// their squared partner counts.
//
// Rows are added side by side, in any order and in any number of calls:
// adding one row to code k on side 0 (a_k += 1) adds b_k to T, b_k² to
// Σ a_k·b_k² and b_k·(2a_k + 1) to Σ b_k·a_k²; a row on side 1 is the
// mirror image. Every sum is an integer below 2^53, so one sequential pass
// is exact. A plan with the Pairs shape fills one per pass
// (PreparedTerm.tallyPairs), and a RunningTally keeps one across rounds.
//
// A fixed tally's count arrays never grow: its side 1 is complete before
// side 0 is added, sized at side 1's largest code, so a side-0 row coded
// beyond it pairs with nothing and is skipped.
type pairTally struct {
	count [2][]int32
	pairs int64
	sq    [2]int64
	fixed bool
}

// add tallies side s's rows, whose key codes codes holds, and returns the
// number of pairs they add to T.
func (t *pairTally) add(s int, rows []int, codes []int32) int64 {
	own, other := t.count[s], t.count[1-s]
	pairs, sqOwn, sqOther := t.pairs, t.sq[s], t.sq[1-s]
	for _, row := range rows {
		k := int(codes[row])
		if k >= len(own) {
			if t.fixed {
				continue
			}
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
	added := pairs - t.pairs
	t.count[s] = own
	t.pairs, t.sq[s], t.sq[1-s] = pairs, sqOwn, sqOther
	return added
}

// at returns the number of side s's rows whose key code is k.
func (t *pairTally) at(s int, k int32) int32 {
	if int(k) >= len(t.count[s]) {
		return 0
	}
	return t.count[s][k]
}

// moments returns the tally's PairMoments for a term of n occurrences
// whose sides are occurrences occ[0] and occ[1] and whose other
// occurrences multiply its count by tail: T·tail, and the pair's sums
// with the tail left out (all zero when tail is, as for a plan with an
// empty folded tail).
func (t *pairTally) moments(occ [2]int, n int, tail float64) PairMoments {
	pm := PairMoments{SumSq: make([]float64, n)}
	//lint:ignore floateq exact sentinel: a zero tail factor means an empty folded tail, so the term has no assignments
	if tail == 0 {
		return pm
	}
	pm.Total = float64(t.pairs) * tail
	pm.SumY2 = float64(t.pairs)
	pm.SumSq[occ[0]], pm.SumSq[occ[1]] = float64(t.sq[0]), float64(t.sq[1])
	return pm
}

// RunningTally is the pair tally of a pair-shaped COUNT term carried
// across samples that only grow. A term is pair-shaped when every
// equality between two of its occurrences joins the same two, x and y,
// and no residual predicate spans occurrences: its satisfying assignments
// are the pairs of x and y candidates whose keys share a code, times every
// candidate of each other occurrence. Any plan of such a term counts that
// number, whichever order it chose.
//
// Add hands it each occurrence's rows as they are drawn, and each row is
// filtered by the occurrence's σ, coded and added to the tally
// (pairTally.add) in one pass: the tally holds no row, no view and no code
// vector, so a round costs what it drew, not what the sample holds, and
// Moments equals a fresh PreparedTerm.PairMoments over every row added
// exactly.
//
// A RunningTally is not safe for concurrent use.
type RunningTally struct {
	t    *Term
	keys *relation.KeyDomain
	// side[occ] is 0 for x, 1 for y and -1 for an occurrence the term only
	// multiplies by its candidate count; occ[s] is side s's occurrence,
	// and cols[s] are its key columns, aligned column by column with the
	// other side's.
	side  []int
	occ   [2]int
	cols  [2][]int
	intra [][]EqCol
	// cand[occ] counts the candidates added of an occurrence on neither
	// side.
	cand []int
	// rows and codes are the scratch one chunk of added rows is filtered
	// and coded in.
	rows  []int
	codes []int32
	tally pairTally
}

// tallyChunk is the number of rows Add filters and codes at a time, so
// its scratch stays small and in cache however many rows a round draws;
// chunkSlots lists a chunk's slots, 0 … tallyChunk−1, for pairTally.add
// to read a chunk's codes by.
const tallyChunk = 1024

var chunkSlots = func() []int {
	slots := make([]int, tallyChunk)
	for i := range slots {
		slots[i] = i
	}
	return slots
}()

// NewRunningTally returns an empty running tally of the pair-shaped term
// t whose join keys are coded in keys, or false when t is not
// pair-shaped, is weighted (Term.Weight: a tally counts rows, not their
// weights) or reads a relation twice (its rows are not independent
// draws, and its assignments need pattern weights).
func NewRunningTally(t *Term, keys *relation.KeyDomain) (*RunningTally, bool) {
	if len(t.Preds) > 0 || t.Weight != nil || (Polynomial{Terms: []Term{*t}}).MaxOccurrences() > 1 {
		return nil, false
	}
	rt := &RunningTally{
		t:     t,
		keys:  keys,
		side:  make([]int, len(t.Occs)),
		intra: intraEqualities(t),
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
	rt.occ = [2]int{x, y}
	return rt, true
}

// Add tallies rows of r, the relation occurrence occ reads: logical rows
// of r, in any order, none of them added to occ before. Each runs the
// occurrence's σ and intra-occurrence equalities; on the pair's sides its
// key is coded and counted, elsewhere it counts as a candidate.
func (rt *RunningTally) Add(occ int, r *relation.Relation, rows []int32) {
	s := rt.side[occ]
	for len(rows) > 0 {
		chunk := rows[:min(len(rows), tallyChunk)]
		rows = rows[len(chunk):]
		cand := rt.rows[:0]
		for _, row := range chunk {
			cand = append(cand, int(row))
		}
		for _, lp := range rt.t.Occs[occ].LocalPreds {
			cand = lp(r, cand)
		}
		for _, eq := range rt.intra[occ] {
			cand = r.FilterEqual(cand, eq.A.Col, eq.B.Col)
		}
		rt.rows = cand
		if s < 0 {
			rt.cand[occ] += len(cand)
			continue
		}
		if cap(rt.codes) < len(cand) {
			rt.codes = make([]int32, tallyChunk)
		}
		codes := rt.codes[:len(cand)]
		rt.keys.CodeAt(r, rt.cols[s], cand, codes)
		rt.tally.add(s, chunkSlots[:len(codes)], codes)
	}
}

// Moments returns the term's moments over every row added: what
// PreparedTerm.PairMoments(nil) of a plan over those rows returns for its
// counts, bit for bit, with the other occurrences' candidate counts as
// the folded tail's factor.
func (rt *RunningTally) Moments() PairMoments {
	tail := 1.0
	for occ, s := range rt.side {
		if s < 0 {
			tail *= float64(rt.cand[occ])
		}
	}
	return rt.tally.moments(rt.occ, len(rt.side), tail)
}
