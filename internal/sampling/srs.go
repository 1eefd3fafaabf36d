package sampling

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
)

// WithoutReplacement draws a simple random sample of n distinct indices
// from [0, N) — SRSWOR, the sampling design all of the paper's estimators
// assume. Every size-n subset is equally likely. The returned slice is in
// ascending order. It panics if n < 0 or n > N.
//
// It picks between Floyd's algorithm, for n·3 < N — for j = N−n … N−1
// draw t ∈ [0, j] and take t, or j when t is taken: n draws and no list
// of N — and a partial Fisher–Yates shuffle of [0, N) otherwise, so that
// both n ≪ N and n ≈ N are efficient.
func WithoutReplacement(rng *rand.Rand, N, n int) []int {
	if n < 0 || n > N {
		panic(fmt.Sprintf("sampling: WithoutReplacement(N=%d, n=%d) out of range", N, n))
	}
	var out []int
	if n*3 < N {
		taken := make([]uint64, (N+63)>>6)
		out = make([]int, 0, n)
		for j := N - n; j < N; j++ {
			c := rng.Intn(j + 1)
			if !setBit(taken, c) {
				c = j
				setBit(taken, c)
			}
			out = append(out, c)
		}
	} else {
		out = make([]int, N)
		for i := range out {
			out[i] = i
		}
		for i := 0; i < n; i++ {
			j := i + rng.Intn(N-i)
			out[i], out[j] = out[j], out[i]
		}
		out = out[:n:n]
	}
	sort.Ints(out)
	countDraw(n)
	return out
}

// setBit sets bit i of b and reports whether it was clear.
func setBit(b []uint64, i int) bool {
	w, bit := i>>6, uint64(1)<<(uint(i)&63)
	was := b[w] & bit
	b[w] |= bit
	return was == 0
}

// Draw is the state of an SRSWOR sample of [0, N) that grows round by
// round: what one sequential or deadline request keeps per relation for
// its whole life, so that no round rebuilds what an earlier one built.
// Each round (Next) adds m indices drawn uniformly from the unsampled
// ones, so after every round the sample is distributed exactly as a fresh
// SRSWOR sample of its size (sequential double sampling relies on this).
//
// A round draws by rejection while the sample it leaves stays under half
// of N: an index drawn from [0, N) is kept unless the membership bitset
// already holds it. The first round that would pass half of N lists the
// unsampled indices once, ascending, and drops the bitset; that round and
// every later one is a partial Fisher–Yates shuffle of what is left of
// the list, whose next m entries are the round's draw: one rng call per
// index, and no rebuild. A round that takes every index left — the census
// — makes no rng call at all. N must be below 2^31.
type Draw struct {
	N, n int
	// taken is the sample's membership bitset while the draw rejects;
	// nil once rest is listed.
	taken []uint64
	// rest is the complement as the first dense round listed it: rest[:k]
	// have been drawn since, rest[k:] are the indices still unsampled.
	rest []int32
	k    int
	// buf holds a rejection round's draws.
	buf []int32
}

// NewDraw returns the draw state of the sample of [0, N) that ids lists.
// It panics on a duplicate index or one outside [0, N).
func NewDraw(N int, ids []int) *Draw {
	d := &Draw{N: N, n: len(ids), taken: make([]uint64, (N+63)>>6)}
	for _, i := range ids {
		if i < 0 || i >= N || !setBit(d.taken, i) {
			panic(fmt.Sprintf("sampling: sample of [0, %d) has index %d twice or out of range", N, i))
		}
	}
	return d
}

// Len returns the number of indices sampled so far.
func (d *Draw) Len() int { return d.n }

// Next grows the sample by m indices and returns them in draw order (see
// Draw). The slice is the draw's own: it must not be modified, and it is
// valid only until the next call. It panics if the sample cannot grow by
// m.
func (d *Draw) Next(rng *rand.Rand, m int) []int32 {
	if m < 0 || d.n+m > d.N {
		panic(fmt.Sprintf("sampling: Draw.Next(m=%d) of a sample of %d from [0, %d)", m, d.n, d.N))
	}
	if m == 0 {
		return nil
	}
	countDraw(m)
	d.n += m
	if d.rest == nil && d.n*2 < d.N {
		out := d.buf[:0]
		for len(out) < m {
			if c := rng.Intn(d.N); setBit(d.taken, c) {
				out = append(out, int32(c))
			}
		}
		d.buf = out
		return out
	}
	if d.rest == nil {
		d.rest = make([]int32, 0, d.N-d.n+m)
		for w, word := range d.taken {
			for free := ^word; free != 0; free &= free - 1 {
				if i := w<<6 + bits.TrailingZeros64(free); i < d.N {
					d.rest = append(d.rest, int32(i))
				}
			}
		}
		d.taken, d.buf = nil, nil
	}
	from, rest := d.k, d.rest
	if d.k += m; d.k < len(rest) {
		for i := from; i < d.k; i++ {
			j := i + rng.Intn(len(rest)-i)
			rest[i], rest[j] = rest[j], rest[i]
		}
	}
	return rest[from:d.k:d.k]
}

// Shuffle permutes xs in place (Fisher–Yates).
func Shuffle(rng *rand.Rand, xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// SplitLabels randomly partitions n sampled units into g nearly equal
// groups for split-sample (replicated) variance estimation and returns each
// unit's group, label[u] ∈ [0, g): the units are shuffled (Shuffle) and
// dealt round-robin, so group sizes differ by at most one and each group is
// itself an SRSWOR sample of the population. When strata is non-nil it
// lists the units of each stratum, which together must cover [0, n) once:
// every stratum is shuffled and dealt on its own, in order, so each group
// is again a stratified sample with the same strata. Nothing is sorted. It
// panics if g < 1; groups are empty when g exceeds a (stratum's) size.
func SplitLabels(rng *rand.Rand, n, g int, strata [][]int) []int32 {
	if g < 1 {
		panic(fmt.Sprintf("sampling: SplitLabels with g=%d", g))
	}
	label := make([]int32, n)
	perm := make([]int, n)
	deal := func(units []int, k int) {
		perm := perm[:k]
		for i := range perm {
			perm[i] = i
		}
		Shuffle(rng, perm)
		l := int32(0) // i % g for the i-th dealt unit
		for _, j := range perm {
			if units != nil {
				j = units[j]
			}
			label[j] = l
			if l++; int(l) == g {
				l = 0
			}
		}
	}
	if strata == nil {
		deal(nil, n)
	}
	for _, units := range strata {
		deal(units, len(units))
	}
	return label
}
