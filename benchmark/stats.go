package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs in ascending order without touching the input.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks; NaN for an empty input. It is the
// one percentile definition every latency figure in this package uses, so
// a p50 and a p95 of the same samples are always mutually consistent.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	frac := rank - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// median is percentile(xs, 50).
func median(xs []float64) float64 { return percentile(xs, 50) }

// iqrShare is the run-to-run spread the acceptance rule uses: the distance
// between the first and third quartile as a share of the median. Quartiles
// follow Python's statistics.quantiles(values, n=4) (the "exclusive"
// method: positions (n+1)·k/4 on the 1-based sorted sample), because that
// is what the driver computes; NaN below two samples.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	q := func(k int) float64 {
		m := len(s) + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 { //lint:ignore floateq division guard: an exactly-zero median has no relative spread
		return math.NaN()
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// geoMean accumulates a geometric mean as a running mean of logs, so a
// product over thousands of sub-unity ratios cannot underflow.
type geoMean struct {
	sumLog float64
	n      int
}

func (g *geoMean) add(v float64) {
	g.sumLog += math.Log(v)
	g.n++
}

func (g *geoMean) value() float64 {
	if g.n == 0 {
		return math.NaN()
	}
	return math.Exp(g.sumLog / float64(g.n))
}

// micros and millis convert durations for reporting. They are the only
// place this package turns a wall-clock reading into a float.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// durationsTo maps a duration sample through conv (micros or millis).
func durationsTo(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}

// timeLoop runs fn iters times and returns the per-call durations. Probes
// report the median of these, which a single descheduling cannot move.
func timeLoop(iters int, fn func(i int)) []time.Duration {
	out := make([]time.Duration, iters)
	for i := 0; i < iters; i++ {
		start := time.Now()
		fn(i)
		out[i] = time.Since(start)
	}
	return out
}
