package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based tests (testing/quick) for the statistical substrate.

func TestQuickNormalQuantileMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		p := 0.001 + math.Mod(math.Abs(a), 0.998)
		q := 0.001 + math.Mod(math.Abs(b), 0.998)
		if p > q {
			p, q = q, p
		}
		if p == q {
			return true
		}
		return NormalQuantile(p) <= NormalQuantile(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickNormalCDFQuantileInverse(t *testing.T) {
	f := func(a float64) bool {
		p := 0.001 + math.Mod(math.Abs(a), 0.998)
		x := NormalQuantile(p)
		return math.Abs(NormalCDF(x)-p) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickFallingFactorialRatioInverseInclusion(t *testing.T) {
	// (N)_d/(n)_d · (n)_d/(N)_d = 1 whenever both are finite, and the
	// ratio decreases as n grows toward N.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		N := 2 + rng.Intn(50)
		d := 1 + rng.Intn(3)
		if d > N {
			d = N
		}
		prev := math.Inf(1)
		for n := d; n <= N; n++ {
			r := FallingFactorialRatio(N, n, d)
			if r <= 0 || r > prev+1e-9 {
				return false
			}
			prev = r
		}
		// Census ratio is exactly 1.
		return math.Abs(FallingFactorialRatio(N, N, d)-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickWelfordShiftInvariance(t *testing.T) {
	// Variance is invariant under constant shifts; mean shifts exactly.
	f := func(seed int64, shiftRaw int16) bool {
		rng := rand.New(rand.NewSource(seed))
		shift := float64(shiftRaw)
		n := 2 + rng.Intn(50)
		var a, b Welford
		for i := 0; i < n; i++ {
			x := rng.NormFloat64() * 10
			a.Add(x)
			b.Add(x + shift)
		}
		if math.Abs((b.Mean()-a.Mean())-shift) > 1e-9 {
			return false
		}
		return math.Abs(b.Variance()-a.Variance()) <= 1e-7*math.Max(1, a.Variance())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickTotalVarianceNonnegativeAndCensusZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		N := 2 + rng.Intn(100)
		n := 2 + rng.Intn(N-1)
		s2 := rng.Float64() * 100
		v := TotalVariance(N, n, s2)
		if v < 0 {
			return false
		}
		return TotalVariance(N, N, s2) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
