package sketch

import (
	"fmt"
	"math"
)

// Estimate is a sketch-tier estimate: the median-of-means point value and
// a variance derived from the spread of the per-group means.
//
// With G groups of S atoms each, the group means Z_1..Z_G are i.i.d.
// unbiased estimators of the target quantity with some variance σ²_Z. The
// reported Value is their median; for a sample median of G i.i.d.
// approximately normal values the asymptotic variance is (π/2)·σ²_Z/G,
// with σ²_Z estimated by the sample variance of the group means. The
// resulting standard error is what the tier planner compares against the
// requested precision to decide whether the sketch answer is good enough
// or the term must escalate to the sample tier.
type Estimate struct {
	// Value is the median-of-means point estimate.
	Value float64
	// Variance is the estimated variance of Value (≥ 0).
	Variance float64
}

// StdErr is sqrt(Variance).
func (e Estimate) StdErr() float64 { return math.Sqrt(e.Variance) }

// estimateFromProducts computes the median point estimate and its variance
// from the per-atom products: one estimate per group (mean of atoms in
// plain mode, sum of buckets in hashed mode), the median across groups,
// and the median's asymptotic variance from the group spread.
func estimateFromProducts(products []float64, cfg Config) Estimate {
	groups := cfg.Groups
	ests := cfg.groupEstimates(products)
	mean := 0.0
	for _, z := range ests {
		mean += z
	}
	mean /= float64(groups)
	s2 := 0.0
	for _, z := range ests {
		d := z - mean
		s2 += d * d
	}
	if groups > 1 {
		s2 /= float64(groups - 1)
	}
	return Estimate{Value: medianOf(ests), Variance: (math.Pi / 2) * s2 / float64(groups)}
}

// JoinEstimateVar is JoinEstimate with a variance for the returned value,
// derived from the spread of the median-of-means group means. The sketches
// must share a configuration (same seed ⇒ same ξ streams).
func JoinEstimateVar(s, t *Sketch) (Estimate, error) {
	if s.cfg != t.cfg {
		return Estimate{}, fmt.Errorf("sketch: configs differ (%+v vs %+v); sketches are not joinable", s.cfg, t.cfg)
	}
	products := make([]float64, len(s.atoms))
	for i := range s.atoms {
		products[i] = float64(s.atoms[i]) * float64(t.atoms[i])
	}
	return estimateFromProducts(products, s.cfg), nil
}

// SelfJoinEstimateVar estimates Σ_v f(v)², the second frequency moment F₂,
// with a variance for the returned value.
func (s *Sketch) SelfJoinEstimateVar() Estimate {
	products := make([]float64, len(s.atoms))
	for i, a := range s.atoms {
		products[i] = float64(a) * float64(a)
	}
	return estimateFromProducts(products, s.cfg)
}
