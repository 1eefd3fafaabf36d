package estimator

import (
	"relest/internal/obs"

	"relest/internal/algebra"
)

// Metric and span names emitted by the estimation engine. Instrumentation
// is passive: it never consumes randomness and never branches the
// estimation path, so estimates are bit-identical with any recorder
// installed (enforced by TestRecorderDoesNotChangeEstimates).
const (
	// Spans (durations also land in <name>_seconds histograms).
	sEstimate      = "relest_estimate"
	sTerm          = "relest_term"
	sVariance      = "relest_variance"
	sReplicate     = "relest_replicate"
	sSequential    = "relest_sequential"
	sDeadlineRound = "relest_deadline_round"

	// Counters and gauges.
	mTermsTotal      = "relest_terms_total"
	mSamplesRows     = "relest_samples_rows_total"  // labeled rel=...
	mSamplesUnits    = "relest_samples_units_total" // labeled rel=...
	mReplicatesTotal = "relest_replicates_total"    // labeled method=...
	mVarianceMethod  = "relest_variance_method_total"
	mSeqHalfwidth    = "relest_sequential_halfwidth"   // labeled phase=...
	mSeqSampleRows   = "relest_sequential_sample_rows" // labeled phase=..., rel=...
	mSeqGrowth       = "relest_sequential_growth_factor"
	mDeadlineRounds  = "relest_deadline_rounds_total"
	mDeadHalfwidth   = "relest_deadline_halfwidth"   // labeled round=...
	mDeadSampleRows  = "relest_deadline_sample_rows" // labeled round=..., rel=...
	mMarginals       = "relest_marginals_total"      // labeled path=...

	// Tier planner (handle requests with a sketch-capable policy only, so
	// legacy sample-only paths emit exactly the families they always did).
	mTierAnswered = "relest_tier_answered_total" // labeled tier=...
	mSketchBytes  = "relest_sketch_bytes"
)

// Precomputed label strings keep the recording sites free of obs.L calls
// (which allocate) on every estimate.
var (
	mVarMethodAuto      = obs.L(mVarianceMethod, "method", "auto")
	mVarMethodNone      = obs.L(mVarianceMethod, "method", "none")
	mVarMethodAnalytic  = obs.L(mVarianceMethod, "method", "analytic")
	mVarMethodSplit     = obs.L(mVarianceMethod, "method", "split-sample")
	mVarMethodJackknife = obs.L(mVarianceMethod, "method", "jackknife")
	mVarMethodSketch    = obs.L(mVarianceMethod, "method", "sketch")

	mRepSplit = obs.L(mReplicatesTotal, "method", "split-sample")

	mMarginalsFactorized = obs.L(mMarginals, "path", "factorized")
	mMarginalsEnumerated = obs.L(mMarginals, "path", "enumerated")

	mTierSketch = obs.L(mTierAnswered, "tier", TierAnsweredSketch)
	mTierSample = obs.L(mTierAnswered, "tier", TierAnsweredSample)
	mTierMixed  = obs.L(mTierAnswered, "tier", TierAnsweredMixed)
)

// tierAnsweredMetric maps a TierReport.Answered value to its counter
// series (the label set is closed).
func tierAnsweredMetric(answered string) string {
	switch answered {
	case TierAnsweredSketch:
		return mTierSketch
	case TierAnsweredMixed:
		return mTierMixed
	default:
		return mTierSample
	}
}

// varianceMethodMetric maps a method to its counter series.
func varianceMethodMetric(m VarianceMethod) string {
	switch m {
	case VarNone:
		return mVarMethodNone
	case VarAnalytic:
		return mVarMethodAnalytic
	case VarSplitSample:
		return mVarMethodSplit
	case VarJackknife:
		return mVarMethodJackknife
	case VarSketch:
		return mVarMethodSketch
	default:
		return mVarMethodAuto
	}
}

// recordSynopsis reports the sample volume an estimate consumes: rows and
// sampling units per referenced relation, plus the term count. Label
// construction allocates, so the whole report is skipped for a no-op
// recorder.
func recordSynopsis(rec obs.Recorder, poly algebra.Polynomial, syn *Synopsis) {
	if !obs.Live(rec) {
		return
	}
	rec.Add(mTermsTotal, float64(len(poly.Terms)))
	rec.Set(obs.MetricSynopsisBytes, float64(syn.Bytes()))
	for _, rel := range poly.RelationNames() {
		rs, ok := syn.rels[rel]
		if !ok {
			continue
		}
		rec.Add(obs.L(mSamplesRows, "rel", rel), float64(rs.n))
		rec.Add(obs.L(mSamplesUnits, "rel", rel), float64(rs.m))
	}
}
