package stats

import (
	"fmt"
	"math"
	"math/big"
)

// FallingFactorialRatio returns (N)_d / (n)_d, the inverse inclusion
// probability of an ordered d-subset under SRSWOR of n from N. It is the
// fundamental scaling weight of the pattern-weighted term estimator.
// It returns +Inf when n < d (the sample cannot exhibit the pattern) and
// panics for d < 0 or N < d.
func FallingFactorialRatio(N, n, d int) float64 {
	if d < 0 {
		panic(fmt.Sprintf("stats: FallingFactorialRatio requires d >= 0, got %d", d))
	}
	if N < d {
		panic(fmt.Sprintf("stats: FallingFactorialRatio requires N >= d, got N=%d d=%d", N, d))
	}
	if n < d {
		return math.Inf(1)
	}
	// Interleave factors to keep the running product near its final
	// magnitude: ∏ (N−i)/(n−i).
	r := 1.0
	for i := 0; i < d; i++ {
		r *= float64(N-i) / float64(n-i)
	}
	return r
}

// BigFallingFactorial returns (x)_d as an exact big.Int-backed big.Float.
// Used by Goodman's distinct-count estimator, whose terms involve ratios of
// falling factorials with catastrophic cancellation in float64.
func BigFallingFactorial(x, d int) *big.Float {
	r := big.NewInt(1)
	t := new(big.Int)
	for i := 0; i < d; i++ {
		t.SetInt64(int64(x - i))
		r.Mul(r, t)
	}
	return new(big.Float).SetPrec(256).SetInt(r)
}
