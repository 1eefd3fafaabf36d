package sampling

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
)

// WithoutReplacement draws a simple random sample of n distinct indices
// from [0, N) — SRSWOR, the sampling design all of the paper's estimators
// assume. Every size-n subset is equally likely. The returned slice is in
// ascending order. It panics if n < 0 or n > N.
func WithoutReplacement(rng *rand.Rand, N, n int) []int {
	if n < 0 || n > N {
		panic(fmt.Sprintf("sampling: WithoutReplacement(N=%d, n=%d) out of range", N, n))
	}
	out := pick(rng, N, nil, n, make([]uint64, (N+63)>>6))
	sort.Ints(out)
	countDraw(n)
	return out
}

// pick draws m distinct entries of ids (of [0, C) itself when ids is nil)
// uniformly, sets their bits in taken, where none is set yet, and returns
// them in draw order. It picks between Floyd's algorithm, for m·3 < C —
// for j = C−m … C−1 draw t ∈ [0, j] and take entry t, or entry j when t's
// is taken: m draws and no list of C — and a partial Fisher–Yates shuffle
// of ids (built when nil) otherwise, so that both m ≪ C and m ≈ C are
// efficient.
func pick(rng *rand.Rand, C int, ids []int, m int, taken []uint64) []int {
	if m*3 < C {
		entry := func(t int) int {
			if ids == nil {
				return t
			}
			return ids[t]
		}
		out := make([]int, 0, m)
		for j := C - m; j < C; j++ {
			c := entry(rng.Intn(j + 1))
			if !setBit(taken, c) {
				c = entry(j)
				setBit(taken, c)
			}
			out = append(out, c)
		}
		return out
	}
	if ids == nil {
		ids = make([]int, C)
		for i := range ids {
			ids[i] = i
		}
	}
	for i := 0; i < m; i++ {
		j := i + rng.Intn(C-i)
		ids[i], ids[j] = ids[j], ids[i]
		setBit(taken, ids[i])
	}
	return ids[:m:m]
}

// Members returns the membership bitset of a sample of [0, N): bit i&63 of
// word i>>6 is set for every i in ids. It panics on a duplicate.
func Members(N int, ids []int) []uint64 {
	taken := make([]uint64, (N+63)>>6)
	for _, i := range ids {
		if !setBit(taken, i) {
			panic("sampling: sample has duplicate indices")
		}
	}
	return taken
}

// setBit sets bit i of b and reports whether it was clear.
func setBit(b []uint64, i int) bool {
	w, bit := i>>6, uint64(1)<<(uint(i)&63)
	was := b[w] & bit
	b[w] |= bit
	return was == 0
}

// Grow enlarges an SRSWOR sample of [0, N), listed in units and held in
// the membership bitset taken (Members), by m more indices drawn uniformly
// from the complement: it sets their bits and returns units with them
// appended in draw order, as append does. The combined sample is
// distributed exactly as a fresh SRSWOR sample of size len(units)+m
// (sequential double sampling relies on this). Rejection sampling serves
// while the sample stays under half of N; past that, m entries of the
// ascending complement are picked with the rng calls WithoutReplacement
// over it would make, minus its sort. The complement list is laid out in
// units' spare room, grown to N when short, so a sample grown round after
// round builds it without allocating again. It panics if the extension is
// impossible.
func Grow(rng *rand.Rand, N int, taken []uint64, units []int, m int) []int {
	n := len(units)
	if m < 0 || n+m > N {
		panic(fmt.Sprintf("sampling: Grow(N=%d, n=%d, m=%d) out of range", N, n, m))
	}
	if (n+m)*2 < N {
		for len(units) < n+m {
			if c := rng.Intn(N); setBit(taken, c) {
				units = append(units, c)
			}
		}
	} else if m > 0 {
		units = slices.Grow(units, N-n)
		complement := units[n:n]
		for w, word := range taken {
			for free := ^word; free != 0; free &= free - 1 {
				if i := w<<6 + bits.TrailingZeros64(free); i < N {
					complement = append(complement, i)
				}
			}
		}
		// A shuffle leaves its draws at the head of the complement, where
		// they already sit behind units; Floyd's come in a list of their own.
		units = append(units, pick(rng, len(complement), complement, m, taken)...)
	}
	countDraw(m)
	return units
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
