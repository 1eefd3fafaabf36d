package estimator

import (
	"context"
	"fmt"
	"math"

	"relest/internal/algebra"
	"relest/internal/sketch"
	"relest/internal/stats"
)

// The tier planner: answer each counting-polynomial term from the
// cheapest synopsis tier that meets the requested precision.
//
// Tier 1 (sketch) answers, in O(atoms) time and without touching a single
// sample row:
//
//   - bare cardinality terms (one occurrence, no constraints) — exactly,
//     from the synopsis's maintained population count;
//   - two-occurrence terms whose whole constraint is one cross-occurrence
//     column equality — equi-joins and self-joins — from the AGMS column
//     sketches (E[X·Y] = Σ_v f₁(v)·f₂(v)), with a variance from the
//     median-of-means group spread (sketch.Estimate).
//
// Everything else — θ-joins, selections (LocalPreds), residual predicates,
// the multi-equality terms that ∩/∪/− expand into — escalates per term to
// tier 2, the sample-based counting polynomial. A sketch-shaped term also
// escalates when its estimated relative CI half-width z·σ̂/max(|v|,1)
// exceeds the precision target, or when its point value is non-positive
// (the median of products can undershoot zero on tiny joins, where the
// sample tier is also cheap).
//
// Variance composition follows the sampling-algebra (GUS) independence
// rules: the ξ streams behind the sketches and the SRSWOR draws behind
// the samples are independent randomness sources, so the total variance
// is the sum of the two tiers' variances. Escalated terms are evaluated
// together as one sub-polynomial through the existing engine, which
// preserves the cross-term covariance accounting of the replication
// estimators within the sample tier. Terms answered by *different column
// sketches* share ξ streams and are treated as uncorrelated — an
// approximation that is exact for the single-sketch-term expressions the
// tier targets and documented in DESIGN.md §14.

// TierPolicy selects which synopsis tiers a request may use.
type TierPolicy int

// Tier policies.
const (
	// TierDefault (the zero value) selects TierAuto in NewEstimator.
	TierDefault TierPolicy = iota
	// TierAuto answers each term from the sketch tier when it meets the
	// precision target, escalating per term to the sample tier.
	TierAuto
	// TierSketchOnly answers from sketches alone and fails on any term
	// the sketch tier cannot answer within the precision target.
	TierSketchOnly
	// TierSampleOnly bypasses sketches entirely: every term escalates to
	// the sample-based counting polynomial.
	TierSampleOnly
)

// String names the policy (the tokens the CLI and server accept).
func (p TierPolicy) String() string {
	switch p {
	case TierDefault:
		return "default"
	case TierAuto:
		return "auto"
	case TierSketchOnly:
		return "sketch"
	case TierSampleOnly:
		return "sample"
	default:
		return fmt.Sprintf("TierPolicy(%d)", int(p))
	}
}

// ParseTierPolicy parses the CLI/server policy tokens.
func ParseTierPolicy(s string) (TierPolicy, error) {
	switch s {
	case "", "default":
		return TierDefault, nil
	case "auto":
		return TierAuto, nil
	case "sketch":
		return TierSketchOnly, nil
	case "sample":
		return TierSampleOnly, nil
	default:
		return TierDefault, fmt.Errorf("estimator: unknown tier policy %q (want auto, sketch or sample)", s)
	}
}

// DefaultPrecision is the target relative CI half-width used when the
// handle sets none: a sketch answer is accepted when
// z·σ̂ is within 10% of the estimate.
const DefaultPrecision = 0.1

// Tier names reported in TierReport.Answered, the server's `tier` field
// and the relest_tier_answered_total metric label.
const (
	TierAnsweredSketch = "sketch"
	TierAnsweredSample = "sample"
	TierAnsweredMixed  = "mixed"
)

// TierReport records which tier(s) produced an estimate.
type TierReport struct {
	// Answered is "sketch", "sample" or "mixed".
	Answered string
	// SketchTerms and SampleTerms count the polynomial terms answered by
	// each tier.
	SketchTerms, SampleTerms int
}

// termShape classifies one polynomial term for the sketch tier.
type termShape int

const (
	shapeEscalate  termShape = iota // not sketchable; sample tier
	shapeExactCard                  // |R|: exact from the population count
	shapeSketchEq                   // one cross-occurrence equality: AGMS
)

// sketchShape classifies a term. Any selection (LocalPreds) or residual
// predicate is invisible to a frequency sketch and forces escalation.
func sketchShape(t *algebra.Term) termShape {
	if t.Weight != nil {
		return shapeEscalate // a row weight is selections, summed
	}
	for _, o := range t.Occs {
		if len(o.LocalPreds) > 0 {
			return shapeEscalate
		}
	}
	if len(t.Preds) > 0 {
		return shapeEscalate
	}
	switch {
	case len(t.Occs) == 1 && len(t.Eqs) == 0:
		return shapeExactCard
	case len(t.Occs) == 2 && len(t.Eqs) == 1:
		eq := t.Eqs[0]
		if (eq.A.Occ == 0 && eq.B.Occ == 1) || (eq.A.Occ == 1 && eq.B.Occ == 0) {
			return shapeSketchEq
		}
	}
	return shapeEscalate
}

// sketchTermEstimate answers one sketch-shaped term, or reports it cannot
// (missing relation, missing sketch tier, column out of range).
func sketchTermEstimate(t *algebra.Term, syn *Synopsis, shape termShape) (sketch.Estimate, bool) {
	switch shape {
	case shapeExactCard:
		rs, ok := syn.rels[t.Occs[0].RelName]
		if !ok {
			return sketch.Estimate{}, false
		}
		return sketch.Estimate{Value: float64(rs.N)}, true
	case shapeSketchEq:
		a, b := t.Eqs[0].A, t.Eqs[0].B
		if a.Occ == 1 {
			a, b = b, a
		}
		rkA := syn.relSketch(t.Occs[a.Occ].RelName)
		rkB := syn.relSketch(t.Occs[b.Occ].RelName)
		if rkA == nil || rkB == nil || a.Col >= len(rkA.cols) || b.Col >= len(rkB.cols) {
			return sketch.Estimate{}, false
		}
		sA, sB := rkA.cols[a.Col], rkB.cols[b.Col]
		if sA == sB {
			// Same relation, same attribute: the second frequency moment,
			// whose products are squares (strictly better variance than
			// treating the two sides as distinct sketches).
			return sA.SelfJoinEstimateVar(), true
		}
		est, err := sketch.JoinEstimateVar(sA, sB)
		if err != nil {
			return sketch.Estimate{}, false
		}
		return est, true
	}
	return sketch.Estimate{}, false
}

// ciZ returns the CI multiplier the options imply (shared with estimatePoly).
func ciZ(opts Options) float64 {
	switch opts.CI {
	case CIChebyshev:
		return stats.ChebyshevZ(1 - opts.Confidence)
	default:
		return stats.NormalQuantile(1 - (1-opts.Confidence)/2)
	}
}

// meetsPrecision reports whether a sketch answer is tight enough: the
// z-scaled standard error relative to the value must be within the target
// and the value must be positive (exact answers always pass).
func meetsPrecision(est sketch.Estimate, z, precision float64) bool {
	//lint:ignore floateq zero variance is the exact-cardinality marker, assigned literally and never computed
	if est.Variance == 0 {
		return true
	}
	if est.Value <= 0 {
		return false
	}
	return z*est.StdErr()/math.Max(est.Value, 1) <= precision
}

// tieredCount runs the tier planner over a counting polynomial:
// sketch-first per term, escalating to one sample-tier sub-polynomial,
// composing values and variances across tiers. Under TierSampleOnly no
// term is offered to the sketch tier — not even the exact-cardinality
// shape — so every term counts as escalated and the whole polynomial goes
// to estimatePoly as is.
func tieredCount(ctx context.Context, poly algebra.Polynomial, syn *Synopsis, opts Options, policy TierPolicy, precision float64) (Estimate, TierReport, error) {
	opts = opts.withDefaults()
	if precision <= 0 {
		precision = DefaultPrecision
	}
	z := ciZ(opts)

	sketchVal, sketchVar := 0.0, 0.0
	nSketch := 0
	var escalated []algebra.Term
	offered := poly.Terms
	if policy == TierSampleOnly {
		offered = nil
	}
	for i := range offered {
		t := &offered[i]
		shape := sketchShape(t)
		est, ok := sketchTermEstimate(t, syn, shape)
		if !ok || !meetsPrecision(est, z, precision) {
			if policy == TierSketchOnly {
				return Estimate{}, TierReport{}, fmt.Errorf(
					"estimator: sketch tier cannot answer term %d within precision %g (%s); use the auto policy to escalate to the sample tier",
					i, precision, sketchRefusal(t, syn, shape, est, ok))
			}
			escalated = append(escalated, *t)
			continue
		}
		nSketch++
		c := float64(t.Coef)
		sketchVal += c * est.Value
		sketchVar += c * c * est.Variance
	}

	rep := TierReport{SketchTerms: nSketch, SampleTerms: poly.NumTerms() - nSketch}
	switch {
	case nSketch == 0:
		rep.Answered = TierAnsweredSample
		est, err := estimatePoly(ctx, poly, syn, opts, countContrib)
		return est, rep, err

	case len(escalated) == 0:
		rep.Answered = TierAnsweredSketch
		method := VarSketch
		if opts.Variance == VarNone {
			method = VarNone
		}
		return finishEstimate(sketchVal, sketchVar, method, poly.NumTerms(), opts), rep, nil

	default:
		rep.Answered = TierAnsweredMixed
		sub := algebra.Polynomial{Terms: escalated}
		sEst, err := estimatePoly(ctx, sub, syn, opts, countContrib)
		if err != nil {
			return Estimate{}, rep, err
		}
		est := Estimate{
			Value:          sketchVal + sEst.Value,
			Variance:       math.NaN(),
			Confidence:     opts.Confidence,
			VarianceMethod: sEst.VarianceMethod,
			Terms:          poly.NumTerms(),
		}
		if sEst.VarianceMethod != VarNone && !math.IsNaN(sEst.Variance) {
			est.Variance = sEst.Variance + sketchVar
			est.StdErr = math.Sqrt(math.Max(est.Variance, 0))
			est.Lo = est.Value - z*est.StdErr
			est.Hi = est.Value + z*est.StdErr
		}
		return est, rep, nil
	}
}

// sketchRefusal explains why a term could not be answered by the sketch
// tier (for the TierSketchOnly error message).
func sketchRefusal(t *algebra.Term, syn *Synopsis, shape termShape, est sketch.Estimate, answered bool) string {
	if shape == shapeEscalate {
		return "term shape not sketchable: sketches answer bare cardinalities and single-equality joins without predicates"
	}
	if !answered {
		for _, o := range t.Occs {
			if syn.relSketch(o.RelName) == nil {
				return fmt.Sprintf("no sketch tier for relation %q (samples registered via AddSample carry no base to sketch)", o.RelName)
			}
		}
		return "sketch tier unavailable for the term's relations"
	}
	if est.Value <= 0 {
		return fmt.Sprintf("sketch point estimate %.3g is non-positive", est.Value)
	}
	return fmt.Sprintf("sketch CI half-width %.3g exceeds the target relative width", est.StdErr())
}
