package stats

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestWelfordAgainstDirect(t *testing.T) {
	cases := [][]float64{
		{1},
		{1, 2},
		{3, 3, 3, 3},
		{-5, 10, 0.5, 2.25, 17, -3},
		{1e9, 1e9 + 1, 1e9 + 2, 1e9 + 3}, // numerically hostile for naive sum of squares
	}
	for _, xs := range cases {
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		var s2 float64
		for _, x := range xs {
			s2 += (x - mean) * (x - mean)
		}
		if len(xs) > 1 {
			s2 /= float64(len(xs) - 1)
		} else {
			s2 = 0
		}
		if !almostEqual(w.Mean(), mean, 1e-12) {
			t.Errorf("mean(%v) = %v, want %v", xs, w.Mean(), mean)
		}
		if !almostEqual(w.Variance(), s2, 1e-9) {
			t.Errorf("variance(%v) = %v, want %v", xs, w.Variance(), s2)
		}
		if w.N() != int64(len(xs)) {
			t.Errorf("n = %d, want %d", w.N(), len(xs))
		}
	}
}

func TestTotalVariance(t *testing.T) {
	// Exhaustive check against the definition on a tiny population:
	// enumerate all C(N, n) samples, compute the total estimator N·ȳ for
	// each, and compare the empirical variance with the Cochran formula.
	pop := []float64{1, 4, 4, 9, 0, 2}
	N := len(pop)
	n := 3
	S2 := func() float64 {
		m := 0.0
		for _, y := range pop {
			m += y
		}
		m /= float64(N)
		v := 0.0
		for _, y := range pop {
			v += (y - m) * (y - m)
		}
		return v / float64(N-1)
	}()
	want := float64(N*N) * (1 - float64(n)/float64(N)) * S2 / float64(n)

	var got Welford
	var rec func(start int, chosen []float64)
	rec = func(start int, chosen []float64) {
		if len(chosen) == n {
			sum := 0.0
			for _, y := range chosen {
				sum += y
			}
			got.Add(float64(N) * sum / float64(n))
			return
		}
		for i := start; i < N; i++ {
			rec(i+1, append(chosen, pop[i]))
		}
	}
	rec(0, nil)
	if !almostEqual(got.PopVariance(), want, 1e-9) {
		t.Errorf("empirical variance %v, formula %v", got.PopVariance(), want)
	}
}

func TestTotalVarianceEdgeCases(t *testing.T) {
	if v := TotalVariance(10, 1, 5); v != 0 {
		t.Errorf("n<2 should give 0, got %v", v)
	}
	if v := TotalVariance(10, 10, 5); v != 0 {
		t.Errorf("census should give 0, got %v", v)
	}
}

func TestProportionTotalVarianceUnbiased(t *testing.T) {
	// The plug-in estimator TotalVariance(N, n, s²) must be unbiased: on a
	// 0/1 population, average it over all C(N, n) samples and compare with
	// the true variance of N·ȳ, N²(1−f)S²/n.
	const N, K, n = 8, 3, 4
	p := float64(K) / N
	trueVar := float64(N*N) * (1 - float64(n)/N) * (p * (1 - p) * N / (N - 1)) / n

	var avg Welford
	var rec func(start, chosen, hits int)
	rec = func(start, chosen, hits int) {
		if chosen == n {
			ph := float64(hits) / n
			avg.Add(TotalVariance(N, n, ph*(1-ph)*n/(n-1)))
			return
		}
		for i := start; i < N; i++ {
			h := hits
			if i < K { // the first K units carry the property
				h++
			}
			rec(i+1, chosen+1, h)
		}
	}
	rec(0, 0, 0)
	if !almostEqual(avg.Mean(), trueVar, 1e-9) {
		t.Errorf("E[var estimate] = %v, true variance = %v", avg.Mean(), trueVar)
	}
}

func TestRelativeError(t *testing.T) {
	cases := []struct {
		est, act, want float64
	}{
		{10, 10, 0},
		{12, 10, 0.2},
		{8, 10, 0.2},
		{0, 0, 0},
		{-5, 10, 1.5},
	}
	for _, c := range cases {
		if got := RelativeError(c.est, c.act); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("RelativeError(%v, %v) = %v, want %v", c.est, c.act, got, c.want)
		}
	}
	if got := RelativeError(1, 0); !math.IsInf(got, 1) {
		t.Errorf("RelativeError(1, 0) = %v, want +Inf", got)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.025, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.975, 0.99, 0.999} {
		x := NormalQuantile(p)
		if got := NormalCDF(x); !almostEqual(got, p, 1e-10) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	// Known values.
	if z := NormalQuantile(0.975); math.Abs(z-1.959963984540054) > 1e-9 {
		t.Errorf("z_0.975 = %v", z)
	}
	if z := NormalQuantile(0.5); math.Abs(z) > 1e-12 {
		t.Errorf("z_0.5 = %v", z)
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) should panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestChebyshevZ(t *testing.T) {
	if got := ChebyshevZ(0.25); !almostEqual(got, 2, 1e-12) {
		t.Errorf("ChebyshevZ(0.25) = %v, want 2", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ChebyshevZ(0) should panic")
			}
		}()
		ChebyshevZ(0)
	}()
}

func TestFallingFactorialRatio(t *testing.T) {
	// (10)_2/(4)_2 = 90/12 = 7.5
	if got := FallingFactorialRatio(10, 4, 2); !almostEqual(got, 7.5, 1e-12) {
		t.Errorf("ratio = %v, want 7.5", got)
	}
	// d=0 is 1 (empty product).
	if got := FallingFactorialRatio(10, 4, 0); got != 1 {
		t.Errorf("ratio d=0 = %v, want 1", got)
	}
	// d=1 is N/n, the classical scale-up.
	if got := FallingFactorialRatio(100, 10, 1); !almostEqual(got, 10, 1e-12) {
		t.Errorf("ratio d=1 = %v, want 10", got)
	}
	// Infeasible pattern.
	if got := FallingFactorialRatio(10, 1, 2); !math.IsInf(got, 1) {
		t.Errorf("n<d should give +Inf, got %v", got)
	}
}

func TestBigFallingFactorialMatchesFloat(t *testing.T) {
	for _, c := range []struct {
		x, d int
		want float64
	}{{5, 3, 60}, {20, 10, 670442572800}, {7, 0, 1}, {5, 6, 0}} {
		got, _ := BigFallingFactorial(c.x, c.d).Float64()
		if got != c.want {
			t.Errorf("big (%d)_%d = %v, want %v", c.x, c.d, got, c.want)
		}
	}
}
