// Package stats provides the small statistical substrate the estimators are
// built on: a streaming moment accumulator, finite-population (SRSWOR)
// variance algebra, the normal quantile and Chebyshev multipliers behind the
// confidence intervals, and falling-factorial arithmetic (the float64 ratio
// that weights a pattern, and arbitrary-precision big.Float for Goodman's
// distinct-count estimator).
//
// Everything in this package is deterministic and allocation-light; the
// random machinery lives in package sampling.
package stats

import "math"

// Welford accumulates a running mean and variance using Welford's
// numerically stable online algorithm. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations seen.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 if no observations were added.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance s² (divisor n−1).
// It returns 0 when fewer than two observations have been added.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// PopVariance returns the population variance (divisor n).
func (w *Welford) PopVariance() float64 {
	if w.n < 1 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// SRSWOR variance algebra.
//
// For a simple random sample of size n drawn without replacement from a
// population of N units with values y_1..y_N, the Horvitz–Thompson style
// estimator of the population total τ = Σ y_i is τ̂ = N·ȳ. Its exact
// variance is
//
//	Var(τ̂) = N² · (1 − f) · S² / n,   f = n/N,
//
// where S² is the population variance with divisor N−1, and the plug-in
// estimator replacing S² by the sample variance s² is unbiased
// (Cochran, Sampling Techniques, Thm 2.2). These helpers implement that
// algebra once so every estimator uses identical finite-population
// corrections.

// TotalVariance returns the unbiased variance estimate of the SRSWOR total
// estimator N·ȳ given the sample variance s² (divisor n−1).
// It returns 0 when n ≥ N (a census has no sampling error) or n < 2.
func TotalVariance(populationSize, sampleSize int, sampleVariance float64) float64 {
	n, N := float64(sampleSize), float64(populationSize)
	if sampleSize < 2 || sampleSize >= populationSize {
		return 0
	}
	fpc := 1 - n/N
	return N * N * fpc * sampleVariance / n
}

// RelativeError returns |est − actual| / actual. When actual is 0 it
// returns 0 if est is also 0 and +Inf otherwise, which keeps aggregate
// error metrics well defined on degenerate workloads.
func RelativeError(est, actual float64) float64 {
	//lint:ignore floateq division guard: only an exactly-zero actual needs the degenerate branches below
	if actual == 0 {
		//lint:ignore floateq exact agreement with an exactly-zero actual is the one zero-error case
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-actual) / math.Abs(actual)
}
