package sketch

import (
	"math"
	"math/rand"
	"testing"
)

func TestJoinEstimateVarMatchesPoint(t *testing.T) {
	// The variance-carrying estimate must return exactly the same point
	// value as the plain one (same atoms, same median-of-means).
	cfg := Config{Groups: 9, GroupSize: 16, Seed: 42}
	a, b := New(cfg), New(cfg)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		a.Add(uint64(rng.Intn(300)))
		b.Add(uint64(rng.Intn(300)))
	}
	point, err := JoinEstimate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	est, err := JoinEstimateVar(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != point {
		t.Errorf("JoinEstimateVar value %v != JoinEstimate %v", est.Value, point)
	}
	if est.Variance <= 0 {
		t.Errorf("variance %v, want > 0 on noisy data", est.Variance)
	}
	if got := est.StdErr(); got != math.Sqrt(est.Variance) {
		t.Errorf("StdErr %v != sqrt(Variance) %v", got, math.Sqrt(est.Variance))
	}
}

func TestSelfJoinEstimateVarMatchesPoint(t *testing.T) {
	s := New(Config{Groups: 7, GroupSize: 20, Seed: 9})
	for v := uint64(0); v < 200; v++ {
		s.Update(v, int64(v%13)+1)
	}
	est := s.SelfJoinEstimateVar()
	if est.Variance <= 0 {
		t.Errorf("variance %v, want > 0", est.Variance)
	}
}

func TestJoinEstimateVarConfigMismatch(t *testing.T) {
	a := New(Config{Seed: 1})
	b := New(Config{Seed: 2})
	if _, err := JoinEstimateVar(a, b); err == nil {
		t.Error("different seeds should not be joinable")
	}
}

func TestEstimateVarianceCalibration(t *testing.T) {
	// Across many independent ξ seeds over the same fixed data, the
	// reported variance must track the empirical squared error of the
	// point estimate — the escalation rule depends on the standard error
	// being honest to within a small constant factor.
	fa := map[uint64]int64{}
	fb := map[uint64]int64{}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 3000; i++ {
		fa[uint64(rng.Intn(150))]++
		fb[uint64(rng.Intn(150))]++
	}
	var exact float64
	for v, c := range fa {
		exact += float64(c) * float64(fb[v])
	}
	const trials = 200
	var sqErr, repVar float64
	for seed := int64(0); seed < trials; seed++ {
		cfg := Config{Groups: 9, GroupSize: 16, Seed: seed}
		a, b := New(cfg), New(cfg)
		for v, c := range fa {
			a.Update(v, c)
		}
		for v, c := range fb {
			b.Update(v, c)
		}
		est, err := JoinEstimateVar(a, b)
		if err != nil {
			t.Fatal(err)
		}
		sqErr += (est.Value - exact) * (est.Value - exact)
		repVar += est.Variance
	}
	mse := sqErr / trials
	mean := repVar / trials
	if ratio := mean / mse; ratio < 0.3 || ratio > 3.0 {
		t.Errorf("mean reported variance %v vs empirical MSE %v (ratio %.2f); want within [0.3, 3.0]",
			mean, mse, ratio)
	}
}

func TestEstimateFromProductsSingleGroup(t *testing.T) {
	// One group: the median is the lone mean and the (n−1) divisor is
	// skipped rather than dividing by zero.
	est := estimateFromProducts([]float64{2, 4, 6}, Config{Groups: 1, GroupSize: 3})
	if est.Value != 4 {
		t.Errorf("value %v, want 4", est.Value)
	}
	if math.IsNaN(est.Variance) || math.IsInf(est.Variance, 0) {
		t.Errorf("variance %v, want finite", est.Variance)
	}
}

func TestSketchBytesAndClone(t *testing.T) {
	s := New(Config{Groups: 3, GroupSize: 4, Seed: 1})
	if s.Bytes() <= 0 {
		t.Fatalf("Bytes() = %d, want > 0", s.Bytes())
	}
	for v := uint64(0); v < 64; v++ {
		s.Add(v)
	}
	c := s.Clone()
	if c.SelfJoinEstimateVar().Value != s.SelfJoinEstimateVar().Value {
		t.Error("clone disagrees with original before divergence")
	}
	// Mutating the clone must not touch the original.
	before := s.SelfJoinEstimateVar().Value
	for v := uint64(0); v < 64; v++ {
		c.Add(v)
	}
	if got := s.SelfJoinEstimateVar().Value; got != before {
		t.Errorf("original changed after mutating clone: %v -> %v", before, got)
	}
	if c.SelfJoinEstimateVar().Value == before {
		t.Error("clone did not change after updates")
	}
}
