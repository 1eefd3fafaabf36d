package estimator

import (
	"fmt"
	"math"
)

// This file is the stratified-composition layer of the estimator: the
// counting polynomial composes linearly over any partition of the input
// (shards, strata, time slices), so a partition-level estimate plus a
// partition-level variance from each part merges into an unbiased
// whole-population estimate with a real CI. A sharded relestd cluster is
// exactly this design with shards as strata; internal/cluster feeds wire
// partials through MergeStratified.

// Partial is one stratum's contribution to a stratified (cluster)
// estimate: an unbiased estimate of the stratum's own count together
// with its variance. Strata sampled independently — which shard-local
// SRSWOR draws with distinct seeds are — merge by plain summation.
type Partial struct {
	// Value is the stratum's unbiased estimate of its slice of the count.
	Value float64
	// Variance is the stratum's variance estimate; NaN when the stratum
	// reported none (then the merged estimate carries no CI either).
	Variance float64
	// Method records how Variance was obtained in the stratum.
	Method VarianceMethod
	// Terms is the number of counting-polynomial terms the stratum
	// evaluated (identical across strata for a shardable query).
	Terms int
}

// StratifiedMerge reports how a merged estimate was composed.
type StratifiedMerge struct {
	// Total is the number of strata in the design.
	Total int
	// Answered is the number of strata that contributed a partial.
	Answered int
	// Partial is true when some strata are missing: the estimate is then
	// a two-stage cluster-sampling estimate over the answered strata with
	// a correspondingly wider CI, never a silently low sum.
	Partial bool
}

// MergeStratified composes per-stratum partials into one estimate.
//
// With every stratum answering, the merge is the exact stratified
// estimator: Ŷ = Σ ŷ_s is unbiased because each ŷ_s is, and since the
// strata sample independently, V̂ = Σ V̂_s. With one stratum the merge
// reproduces that stratum's estimate bit for bit (the CI is rebuilt with
// the same formulas estimatePoly uses), which is what keeps a shards=1
// cluster byte-identical to a single node.
//
// With a < total strata answering, the answered set is treated as a
// first-stage sample of strata (two-stage cluster sampling): the point
// estimate scales to Ŷ = (S/a)·Σ ŷ_s and the variance gains a
// between-strata term, V̂ = S²(1−a/S)·s_b²/a + (S/a)·Σ V̂_s, where s_b² is
// the sample variance of the answered per-stratum estimates. The widened
// CI prices in what the missing strata could have contributed. With a
// single answered stratum s_b² is unestimable; the within term is scaled
// by (S/a)² instead, a conservative floor the caller should surface as
// degraded. Missing strata are only statistically exchangeable with
// answered ones when the partition is hash-like; a range-partitioned
// design with systematically heavier strata can bias the scaled estimate,
// which is why callers must always flag partial merges rather than
// pass them off as full answers.
//
// Any stratum reporting no variance (NaN) makes the merged method
// VarNone: a CI built over a subset of the strata's uncertainties would
// be silently too narrow. Mixed (non-NaN) methods merge fine — the
// variances are still independent and additive — and the merged method
// reports the common one, or VarAuto when strata disagree.
func MergeStratified(parts []Partial, total int, opts Options) (Estimate, StratifiedMerge, error) {
	if len(parts) == 0 {
		return Estimate{}, StratifiedMerge{}, fmt.Errorf("estimator: stratified merge needs at least one partial")
	}
	if total < len(parts) {
		return Estimate{}, StratifiedMerge{}, fmt.Errorf("estimator: %d partials exceed the design's %d strata", len(parts), total)
	}
	opts = opts.withDefaults()
	rep := StratifiedMerge{Total: total, Answered: len(parts), Partial: len(parts) < total}

	value, varSum := 0.0, 0.0
	noVar := false
	method := parts[0].Method
	terms := 0
	for _, p := range parts {
		value += p.Value
		if math.IsNaN(p.Variance) || p.Method == VarNone {
			noVar = true
		} else {
			varSum += p.Variance
		}
		if p.Method != method {
			method = VarAuto
		}
		if p.Terms > terms {
			terms = p.Terms
		}
	}
	if noVar {
		method = VarNone
	}

	a, s := float64(len(parts)), float64(total)
	if rep.Partial {
		scale := s / a
		mean := value / a
		value *= scale
		switch {
		case noVar:
			// No within-stratum variances to widen; the scaled point
			// estimate stands alone and the caller must flag it partial.
		case len(parts) >= 2:
			sb2 := 0.0
			for _, p := range parts {
				d := p.Value - mean
				sb2 += d * d
			}
			sb2 /= a - 1
			varSum = s*s*(1-a/s)*sb2/a + scale*varSum
		default:
			// One answered stratum: the between-strata spread is
			// unestimable, so scale the within term quadratically.
			varSum = scale * scale * varSum
		}
	}
	return finishEstimate(value, varSum, method, terms, opts), rep, nil
}

// finishEstimate assembles an Estimate from a point value and a variance
// the way every COUNT and SUM path does: NaN variance under VarNone,
// StdErr clamped at zero, CI at the requested level. estimatePoly and
// MergeStratified share this so a one-stratum merge reproduces the
// single-synopsis estimate bit for bit. opts must already carry defaults.
func finishEstimate(value, variance float64, method VarianceMethod, terms int, opts Options) Estimate {
	est := Estimate{
		Value:          value,
		Variance:       math.NaN(),
		Confidence:     opts.Confidence,
		VarianceMethod: method,
		Terms:          terms,
	}
	if method != VarNone {
		est.Variance = variance
		est.StdErr = math.Sqrt(math.Max(variance, 0))
		z := ciZ(opts)
		est.Lo = value - z*est.StdErr
		est.Hi = value + z*est.StdErr
	}
	return est
}
