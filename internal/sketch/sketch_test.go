package sketch

import (
	"math"
	"math/rand"
	"testing"
)

func TestMulmod61(t *testing.T) {
	cases := []struct{ a, b uint64 }{
		{0, 0}, {1, 1}, {mersenne61 - 1, mersenne61 - 1},
		{123456789, 987654321}, {1 << 60, 1 << 60},
	}
	for _, c := range cases {
		// Reference via big-int-free double-width check using math/bits is
		// what the implementation does; cross-check with a slow loop-based
		// modmul on reduced operands.
		want := slowMulmod(c.a%mersenne61, c.b%mersenne61)
		if got := mulmod61(c.a%mersenne61, c.b%mersenne61); got != want {
			t.Errorf("mulmod61(%d, %d) = %d, want %d", c.a, c.b, got, want)
		}
	}
}

// slowMulmod computes a*b mod 2^61-1 via repeated doubling.
func slowMulmod(a, b uint64) uint64 {
	var res uint64
	a %= mersenne61
	for b > 0 {
		if b&1 == 1 {
			res = (res + a) % mersenne61
		}
		a = (a * 2) % mersenne61
		b >>= 1
	}
	return res
}

func TestFourWiseBalance(t *testing.T) {
	// Each hash function's signs should be roughly balanced over a value
	// range, and different hash functions should disagree.
	s := New(Config{Groups: 1, GroupSize: 4, Seed: 7})
	for hi, h := range s.hashes {
		sum := int64(0)
		for v := uint64(0); v < 4000; v++ {
			sum += h.sign(v)
		}
		if math.Abs(float64(sum)) > 400 { // ~6σ for ±1 sums
			t.Errorf("hash %d unbalanced: sum %d over 4000 values", hi, sum)
		}
	}
}

func TestSelfJoinEstimate(t *testing.T) {
	// Known frequency vector: value v occurs v+1 times for v in 0..49.
	// F2 = Σ (v+1)².
	var f2 float64
	s := New(Config{Groups: 7, GroupSize: 40, Seed: 11})
	for v := uint64(0); v < 50; v++ {
		s.Update(v, int64(v)+1)
		f2 += float64((v + 1) * (v + 1))
	}
	got := s.SelfJoinEstimateVar().Value
	if math.Abs(got-f2)/f2 > 0.30 {
		t.Errorf("self-join estimate %v, want %v (±30%%)", got, f2)
	}
}

func TestJoinEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := Config{Groups: 9, GroupSize: 60, Seed: 21}
	a := New(cfg)
	b := New(cfg)
	fa := map[uint64]int64{}
	fb := map[uint64]int64{}
	for i := 0; i < 20000; i++ {
		v := uint64(rng.Intn(200))
		a.Add(v)
		fa[v]++
	}
	for i := 0; i < 15000; i++ {
		v := uint64(rng.Intn(200))
		b.Add(v)
		fb[v]++
	}
	var want float64
	for v, c := range fa {
		want += float64(c) * float64(fb[v])
	}
	got, err := JoinEstimate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want)/want > 0.25 {
		t.Errorf("join estimate %v, want %v (±25%%)", got, want)
	}
}

func TestJoinEstimateUnbiasedAcrossSeeds(t *testing.T) {
	// Average the estimate over many independent seeds: must converge on
	// the exact join size (each atomic product is unbiased).
	fa := map[uint64]int64{1: 5, 2: 3, 3: 1, 9: 7}
	fb := map[uint64]int64{1: 2, 3: 4, 9: 1, 11: 6}
	var want float64
	for v, c := range fa {
		want += float64(c) * float64(fb[v])
	}
	sum := 0.0
	const trials = 400
	for seed := int64(0); seed < trials; seed++ {
		cfg := Config{Groups: 1, GroupSize: 16, Seed: seed}
		a, b := New(cfg), New(cfg)
		for v, c := range fa {
			a.Update(v, c)
		}
		for v, c := range fb {
			b.Update(v, c)
		}
		got, err := JoinEstimate(a, b)
		if err != nil {
			t.Fatal(err)
		}
		sum += got
	}
	mean := sum / trials
	if math.Abs(mean-want)/want > 0.15 {
		t.Errorf("mean estimate over seeds %v, want %v", mean, want)
	}
}

func TestDeletionsCancel(t *testing.T) {
	cfg := Config{Seed: 5}
	s := New(cfg)
	for v := uint64(0); v < 100; v++ {
		s.Add(v)
	}
	for v := uint64(0); v < 100; v++ {
		s.Remove(v)
	}
	for _, a := range s.atoms {
		if a != 0 {
			t.Fatal("atoms nonzero after inserting and deleting everything")
		}
	}
	if got := s.SelfJoinEstimateVar().Value; got != 0 {
		t.Errorf("empty self-join estimate %v", got)
	}
}

func TestJoinEstimateConfigMismatch(t *testing.T) {
	a := New(Config{Seed: 1})
	b := New(Config{Seed: 2})
	if _, err := JoinEstimate(a, b); err == nil {
		t.Error("different seeds should not be joinable")
	}
	c := New(Config{Groups: 3, Seed: 1})
	if _, err := JoinEstimate(a, c); err == nil {
		t.Error("different shapes should not be joinable")
	}
}

func TestConfigDefaultsAndAtoms(t *testing.T) {
	var c Config
	if c.Atoms() != 100 {
		t.Errorf("default atoms %d, want 100", c.Atoms())
	}
	s := New(Config{Groups: 3, GroupSize: 7})
	if s.Atoms() != 21 {
		t.Errorf("atoms %d", s.Atoms())
	}
	if s.Config().Groups != 3 {
		t.Errorf("config %+v", s.Config())
	}
}

func TestMedianOfMeansEvenGroups(t *testing.T) {
	// Even group count takes the midpoint of the two central medians.
	products := []float64{1, 1, 3, 3} // groups of size 2: means 1 and 3
	if got := estimateFromProducts(products, Config{Groups: 2, GroupSize: 2}).Value; got != 2 {
		t.Errorf("median of means = %v, want 2", got)
	}
}
