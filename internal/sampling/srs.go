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
// The implementation picks between Floyd's O(n) set-based algorithm (sparse
// samples) and a partial Fisher–Yates shuffle (dense samples) so that both
// n ≪ N and n ≈ N are efficient.
func WithoutReplacement(rng *rand.Rand, N, n int) []int {
	if n < 0 || n > N {
		panic(fmt.Sprintf("sampling: WithoutReplacement(N=%d, n=%d) out of range", N, n))
	}
	if n == 0 {
		return []int{}
	}
	var out []int
	if n*3 < N {
		// Floyd's algorithm: for j = N−n .. N−1, draw t ∈ [0, j]; take t
		// unless already taken, in which case take j. Yields a uniform
		// n-subset using exactly n random draws and an O(n) set.
		chosen := make(map[int]struct{}, n)
		for j := N - n; j < N; j++ {
			t := rng.Intn(j + 1)
			if _, taken := chosen[t]; taken {
				chosen[j] = struct{}{}
			} else {
				chosen[t] = struct{}{}
			}
		}
		out = make([]int, 0, n)
		for i := range chosen {
			out = append(out, i)
		}
	} else {
		// Partial Fisher–Yates over the full index range.
		perm := make([]int, N)
		for i := range perm {
			perm[i] = i
		}
		for i := 0; i < n; i++ {
			j := i + rng.Intn(N-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		out = perm[:n:n]
	}
	sort.Ints(out)
	countDraw(n)
	return out
}

// Extend enlarges an existing SRSWOR sample of [0, N) by m additional
// distinct indices drawn uniformly from the complement, returning the
// combined ascending sample. The result is distributed exactly as a fresh
// SRSWOR sample of size len(existing)+m (sequential double sampling relies
// on this). It panics if the extension is impossible.
//
// Membership is a bitset over [0, N) — N/8 bytes, a small fraction of the
// N-row relation being sampled — and the ascending result is read off it,
// so nothing is hashed and nothing sorted.
func Extend(rng *rand.Rand, N int, existing []int, m int) []int {
	n := len(existing)
	if m < 0 || n+m > N {
		panic(fmt.Sprintf("sampling: Extend(N=%d, n=%d, m=%d) out of range", N, n, m))
	}
	if m == 0 {
		out := append([]int(nil), existing...)
		sort.Ints(out)
		return out
	}
	taken := make([]uint64, (N+63)>>6)
	has := func(i int) bool { return taken[i>>6]&(1<<(uint(i)&63)) != 0 }
	set := func(i int) { taken[i>>6] |= 1 << (uint(i) & 63) }
	for _, i := range existing {
		if has(i) {
			panic("sampling: Extend given sample with duplicate indices")
		}
		set(i)
	}
	// Rejection sampling is efficient while the occupied fraction is small;
	// fall back to sampling positions in the complement when it is not.
	if (n+m)*2 < N {
		for added := 0; added < m; {
			c := rng.Intn(N)
			if has(c) {
				continue
			}
			set(c)
			added++
		}
	} else {
		complement := make([]int, 0, N-n)
		for i := 0; i < N; i++ {
			if !has(i) {
				complement = append(complement, i)
			}
		}
		for _, pos := range WithoutReplacement(rng, len(complement), m) {
			set(complement[pos])
		}
	}
	out := make([]int, 0, n+m)
	for w, word := range taken {
		for ; word != 0; word &= word - 1 {
			out = append(out, w<<6+bits.TrailingZeros64(word))
		}
	}
	countDraw(m)
	return out
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
