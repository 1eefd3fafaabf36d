package estimator

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"relest/internal/algebra"
	"relest/internal/obs"
	"relest/internal/sampling"
	"relest/internal/stats"
)

// Sequential (two-phase / "double") sampling and deadline-bounded
// estimation — the CASE-DB mode the paper was built for: produce an answer
// whose accuracy is quantified, either at a requested precision or by a
// hard time budget.

// SequentialOptions configures double sampling.
type SequentialOptions struct {
	// TargetRelErr is the desired relative half-width of the confidence
	// interval (e.g. 0.05 for ±5%). Required, > 0.
	TargetRelErr float64
	// Confidence is the CI level (default 0.95).
	Confidence float64
	// PilotSize is the per-relation pilot sample size (default 100,
	// clamped to each relation's size).
	PilotSize int
	// MaxFraction caps the final per-relation sampling fraction
	// (default 1.0 = allow a census when needed).
	MaxFraction float64
	// Estimation options for both phases (variance method, groups...).
	Estimate Options
	// RNG drives the sample extensions. When nil, a deterministic
	// generator seeded with Seed is used, so two runs with the same Seed
	// and synopsis draw identical extensions.
	RNG *rand.Rand
	// Seed seeds the extension RNG when RNG is nil.
	Seed int64
}

// rngOrSeeded resolves an options struct's RNG/Seed pair: the explicit
// generator when set, otherwise a fresh deterministic one from seed.
func rngOrSeeded(rng *rand.Rand, seed int64) *rand.Rand {
	if rng != nil {
		return rng
	}
	return sampling.Seeded(seed)
}

// extendTo raises the sample of every relation that holds fewer than
// want(n, N) rows — n held now, N in the population, which also caps the
// target — to that size, in rels order (the order fixes which units the
// rng draws). A page design adds the fewest whole pages that reach the
// target, ⌈(w−n)/pageSize⌉, so it overshoots by less than one page.
func extendTo(syn *Synopsis, rels []string, rng *rand.Rand, want func(n, N int) int) error {
	for _, rel := range rels {
		rs, ok := syn.rels[rel]
		if !ok {
			return fmt.Errorf("estimator: no sample for %q in synopsis", rel)
		}
		if w := min(want(rs.n, rs.N), rs.N); w > rs.n {
			add := w - rs.n
			if !rs.tupleDesign() {
				add = min((add+rs.pageSize-1)/rs.pageSize, rs.M-rs.m)
			}
			if err := syn.ExtendSample(rel, add, rng); err != nil {
				return err
			}
		}
	}
	return nil
}

// rounds is what one deadline or sequential request carries from round to
// round over the synopsis it grows: a running tally of every COUNT term
// of its polynomial that is pair-shaped and reads each relation once
// (algebra.RunningTally). A round advances each tally by the rows the
// round's extension appended and hands the counts to its engine
// (engine.keepPairs), so the point estimate and the closed-form variance
// of such a term cost what the round added, and no plan of it is
// compiled; every other term is planned and counted afresh each round.
// The tallies die with the request.
type rounds struct {
	poly    algebra.Polynomial
	tallies []*algebra.RunningTally // per term; nil where a round compiles
}

// newRounds returns the round state of a request estimating poly over
// syn, whose key domain the tallies code their join keys in.
func newRounds(poly algebra.Polynomial, syn *Synopsis) *rounds {
	r := &rounds{poly: poly, tallies: make([]*algebra.RunningTally, len(poly.Terms))}
	for i := range poly.Terms {
		if (algebra.Polynomial{Terms: poly.Terms[i : i+1]}).MaxOccurrences() == 1 {
			r.tallies[i], _ = algebra.NewRunningTally(&poly.Terms[i], syn.keys)
		}
	}
	return r
}

// estimate is one round's COUNT estimate over syn as it now stands: the
// estimate estimatePoly makes, bit for bit, with the pair-shaped terms'
// counts read off their running tallies.
func (r *rounds) estimate(ctx context.Context, syn *Synopsis, opts Options) (Estimate, error) {
	opts = opts.withDefaults()
	eng, err := startEstimate(ctx, r.poly, syn, opts)
	if err != nil {
		return Estimate{}, err
	}
	defer eng.span.End()
	for i, rt := range r.tallies {
		if rt == nil {
			continue
		}
		t := &r.poly.Terms[i]
		inst, err := algebra.BindInstances(t, syn)
		if err != nil {
			return Estimate{}, err
		}
		eng.keepPairs(t, countContrib, rt.Advance(inst))
	}
	return eng.estimate(r.poly, syn, opts, countContrib)
}

// sampleSizes reports the current per-relation sample sizes.
func sampleSizes(syn *Synopsis, rels []string) map[string]int {
	sizes := make(map[string]int, len(rels))
	for _, rel := range rels {
		sizes[rel], _ = syn.SampleSize(rel)
	}
	return sizes
}

// SequentialResult reports both phases of a double-sampling run.
type SequentialResult struct {
	// Pilot is the phase-one estimate from the pilot samples.
	Pilot Estimate
	// Final is the phase-two estimate from the enlarged samples.
	Final Estimate
	// SampleSizes is the final per-relation sample size.
	SampleSizes map[string]int
	// GrowthFactor is the sample enlargement factor φ chosen from the
	// pilot variance.
	GrowthFactor float64
	// TargetMet reports whether the final CI half-width is within the
	// target relative error of the final estimate.
	TargetMet bool
}

// SequentialCountContext runs double sampling: a pilot estimate determines
// the variance, the sample is grown to the size projected to achieve the
// target relative error at the requested confidence, and the estimate is
// recomputed. The synopsis must have been drawn from stored relations
// (AddDrawn / Draw) so its samples can be extended in place; on return the
// synopsis holds the enlarged samples.
//
// The projection assumes every variance component scales as 1/n_i when all
// sample sizes are scaled together — exact for the leading terms of the
// multilinear estimators used here — so the target is met up to the
// pilot-variance estimation noise; TargetMet reports the verdict from the
// final sample itself.
//
// The context is polled before each phase (and, through the underlying
// estimator, between terms and replicates), and a cancelled run returns a
// non-nil error, never a partial result. The sample extensions draw from
// opts.RNG (or a generator seeded with opts.Seed when RNG is nil).
func SequentialCountContext(ctx context.Context, e *algebra.Expr, syn *Synopsis, opts SequentialOptions) (SequentialResult, error) {
	rng := rngOrSeeded(opts.RNG, opts.Seed)
	if opts.TargetRelErr <= 0 {
		return SequentialResult{}, fmt.Errorf("estimator: sequential estimation requires TargetRelErr > 0")
	}
	if opts.Confidence <= 0 || opts.Confidence >= 1 {
		opts.Confidence = 0.95
	}
	if opts.PilotSize <= 0 {
		opts.PilotSize = 100
	}
	if opts.MaxFraction <= 0 || opts.MaxFraction > 1 {
		opts.MaxFraction = 1
	}
	opts.Estimate.Confidence = opts.Confidence
	rec := obs.Or(opts.Estimate.Recorder)
	span := rec.Span(sSequential)
	defer span.End()

	poly, err := algebra.Normalize(e)
	if err != nil {
		return SequentialResult{}, err
	}
	rels := poly.RelationNames()
	rounds := newRounds(poly, syn)

	// Phase one: make sure every relation has at least the pilot size.
	if err := ctxErr(ctx); err != nil {
		return SequentialResult{}, err
	}
	if err := extendTo(syn, rels, rng, func(int, int) int { return opts.PilotSize }); err != nil {
		return SequentialResult{}, err
	}
	pilot, err := rounds.estimate(ctx, syn, opts.Estimate)
	if err != nil {
		return SequentialResult{}, err
	}

	res := SequentialResult{Pilot: pilot, GrowthFactor: 1}

	// Phase two: grow the samples so that z·σ ≤ e·|J|. With σ² ∝ 1/φ when
	// all sample sizes grow by φ: φ = (z·σ̂ / (e·|Ĵ|))².
	if err := ctxErr(ctx); err != nil {
		return SequentialResult{}, err
	}
	z := stats.NormalQuantile(1 - (1-opts.Confidence)/2)
	recordSeqPhase(rec, "pilot", z, pilot, rels, syn)
	//lint:ignore floateq division guard: a relative-error target is meaningless against an exactly-zero pilot estimate
	if pilot.StdErr > 0 && pilot.Value != 0 {
		phi := math.Pow(z*pilot.StdErr/(opts.TargetRelErr*math.Abs(pilot.Value)), 2)
		if phi > 1 {
			res.GrowthFactor = phi
			grow := func(n, N int) int { return growTarget(n, phi, opts.MaxFraction, N) }
			if err := extendTo(syn, rels, rng, grow); err != nil {
				return SequentialResult{}, err
			}
		}
	}
	final, err := rounds.estimate(ctx, syn, opts.Estimate)
	if err != nil {
		return SequentialResult{}, err
	}
	res.Final = final
	res.SampleSizes = sampleSizes(syn, rels)
	recordSeqPhase(rec, "final", z, final, rels, syn)
	rec.Set(mSeqGrowth, res.GrowthFactor)
	// The stopping verdict needs an actual variance estimate: a run whose
	// variance method degraded to VarNone has StdErr 0 by construction, and
	// claiming the precision target met on that basis would be vacuous.
	//lint:ignore floateq division guard: the relative-error stopping rule is undefined at an exactly-zero estimate
	if final.Value != 0 && final.VarianceMethod != VarNone {
		res.TargetMet = z*final.StdErr <= opts.TargetRelErr*math.Abs(final.Value)*1.0000001
	}
	return res, nil
}

// growTarget is the phase-two sample-size target for one relation:
// ceil(n·φ) clamped to the MaxFraction cap and the population size. The
// clamping happens in float space BEFORE any int conversion: φ is a squared
// ratio with no upper bound, n·φ routinely exceeds the int range on noisy
// pilots, and Go's float→int conversion is implementation-defined out of
// range (it produced negative targets, silently skipping phase two).
func growTarget(n int, phi, maxFraction float64, N int) int {
	t := math.Ceil(float64(n) * phi)
	if lim := math.Floor(maxFraction * float64(N)); t > lim {
		t = lim
	}
	if t >= float64(N) {
		return N
	}
	if t < float64(n) {
		return n
	}
	return int(t)
}

// recordSeqPhase reports one double-sampling phase's CI half-width and
// per-relation sample sizes — the width-vs-n trajectory. Skipped entirely
// for a no-op recorder (label construction allocates).
func recordSeqPhase(rec obs.Recorder, phase string, z float64, est Estimate, rels []string, syn *Synopsis) {
	if !obs.Live(rec) {
		return
	}
	rec.Set(obs.L(mSeqHalfwidth, "phase", phase), z*est.StdErr)
	for _, rel := range rels {
		n, _ := syn.SampleSize(rel)
		rec.Set(obs.L(mSeqSampleRows, "phase", phase, "rel", rel), float64(n))
	}
}

// DeadlineOptions configures deadline-bounded estimation.
type DeadlineOptions struct {
	// Budget is the wall-clock budget for sampling + estimation.
	Budget time.Duration
	// InitialSize is the starting per-relation sample size (default 50).
	InitialSize int
	// Growth multiplies the sample sizes between rounds (default 2.0).
	Growth float64
	// Estimate configures each round's estimation.
	Estimate Options
	// RNG drives the sample extensions. When nil, a deterministic
	// generator seeded with Seed is used.
	RNG *rand.Rand
	// Seed seeds the extension RNG when RNG is nil.
	Seed int64
}

// DeadlineStep records one estimation round.
type DeadlineStep struct {
	SampleSizes map[string]int
	Estimate    Estimate
	Elapsed     time.Duration
}

// DeadlineCountContext grows the synopsis samples geometrically and
// re-estimates until the budget expires, returning the final (most
// precise) estimate and the per-round history. The answer available at the
// deadline is exactly what the CASE-DB use case demands: the best estimate
// the time allowed.
//
// Budget expiry is the normal way out — the loop stops before a round it
// predicts cannot finish in time, and returns the last completed round's
// estimate with a nil error; the first round always runs — but context
// cancellation aborts: it is polled before every sampling round (and,
// through the estimator, between terms), and a cancelled run returns a
// non-nil error with no partial estimate. Callers serving a network
// request therefore map the request's deadline to Budget (the answer the
// time allows) and the request's cancellation to ctx (the caller is gone;
// stop working).
func DeadlineCountContext(ctx context.Context, e *algebra.Expr, syn *Synopsis, opts DeadlineOptions) (Estimate, []DeadlineStep, error) {
	rng := rngOrSeeded(opts.RNG, opts.Seed)
	if opts.Budget <= 0 {
		return Estimate{}, nil, fmt.Errorf("estimator: deadline estimation requires a positive budget")
	}
	if opts.InitialSize <= 0 {
		opts.InitialSize = 50
	}
	if opts.Growth <= 1 {
		opts.Growth = 2
	}
	poly, err := algebra.Normalize(e)
	if err != nil {
		return Estimate{}, nil, err
	}
	rels := poly.RelationNames()
	rec := obs.Or(opts.Estimate.Recorder)
	start := time.Now()
	deadline := start.Add(opts.Budget)

	maxN := 0
	for _, rel := range rels {
		N, _ := syn.PopulationSize(rel)
		maxN = max(maxN, N)
	}
	rounds := newRounds(poly, syn)
	var history []DeadlineStep
	target := opts.InitialSize
	for {
		if err := ctxErr(ctx); err != nil {
			return Estimate{}, nil, err
		}
		rspan := rec.Span(sDeadlineRound)
		roundStart := time.Now()
		if err := extendTo(syn, rels, rng, func(int, int) int { return target }); err != nil {
			return Estimate{}, nil, err
		}
		est, err := rounds.estimate(ctx, syn, opts.Estimate)
		if err != nil {
			return Estimate{}, nil, err
		}
		sizes := sampleSizes(syn, rels)
		exhausted := true
		for _, rel := range rels {
			if N, _ := syn.PopulationSize(rel); sizes[rel] < N {
				exhausted = false
			}
		}
		history = append(history, DeadlineStep{
			SampleSizes: sizes,
			Estimate:    est,
			Elapsed:     time.Since(start),
		})
		rspan.End()
		rec.Add(mDeadlineRounds, 1)
		recordDeadlineRound(rec, len(history), est, rels, sizes)
		if exhausted {
			return est, history, nil
		}
		// Grow in float space and clamp to the largest population: the
		// geometric target can overflow int long before the deadline when
		// Growth is large, and an out-of-range float→int conversion is
		// implementation-defined (a negative target stalls growth forever).
		next := maxN
		if f := math.Ceil(float64(target) * opts.Growth); f < float64(maxN) {
			next = int(f)
		}
		now := time.Now()
		if !nextRoundFits(now.Sub(roundStart), deadline.Sub(now), float64(next)/float64(target)) {
			return est, history, nil
		}
		target = next
	}
}

// nextRoundFits reports whether a deadline round may start with remaining
// time left after a round that took last. The next round grows the sample
// target by the factor growth, so it is predicted to cost last × growth;
// starting it with less time left would overrun the budget by up to its
// own length, and that length grows with every round the budget affords.
func nextRoundFits(last, remaining time.Duration, growth float64) bool {
	return float64(last)*growth < float64(remaining)
}

// recordDeadlineRound reports one deadline round's CI half-width and sample
// sizes — the width-vs-n trajectory, labeled by 1-based round. Skipped for
// a no-op recorder (label construction allocates).
func recordDeadlineRound(rec obs.Recorder, round int, est Estimate, rels []string, sizes map[string]int) {
	if !obs.Live(rec) {
		return
	}
	r := strconv.Itoa(round)
	rec.Set(obs.L(mDeadHalfwidth, "round", r), (est.Hi-est.Lo)/2)
	for _, rel := range rels {
		rec.Set(obs.L(mDeadSampleRows, "round", r, "rel", rel), float64(sizes[rel]))
	}
}
