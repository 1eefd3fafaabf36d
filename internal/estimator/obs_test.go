package estimator

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"relest/internal/obs"
	"relest/internal/sampling"
)

// sameBits reports bit-level equality of two floats (NaN == NaN here:
// both estimates carrying the same NaN pattern is exactly what the
// instrumentation contract demands).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func assertSameEstimate(t *testing.T, label string, a, b Estimate) {
	t.Helper()
	if !sameBits(a.Value, b.Value) || !sameBits(a.Variance, b.Variance) ||
		!sameBits(a.Lo, b.Lo) || !sameBits(a.Hi, b.Hi) || a.VarianceMethod != b.VarianceMethod {
		t.Errorf("%s: recorder changed the estimate:\n  with:    %+v\n  without: %+v", label, a, b)
	}
}

// TestRecorderDoesNotChangeEstimates is the tentpole contract: attaching a
// live Collector (with tracing) to an estimation must leave every output
// float bit-identical to the unrecorded run, for COUNT and SUM, for every
// variance method, at multiple worker counts.
func TestRecorderDoesNotChangeEstimates(t *testing.T) {
	expr, syn := drawnJoinSynopsis(t, 400, 300, 40, 11)
	for _, variance := range []VarianceMethod{VarAnalytic, VarSplitSample, VarJackknife} {
		for _, workers := range []int{1, 4} {
			base := Options{Variance: variance, Seed: 42, Workers: workers}
			plain, err := countOf(expr, syn, base)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", variance, workers, err)
			}
			rec := obs.NewCollector()
			rec.EnableTrace()
			withRec := base
			withRec.Recorder = rec
			recorded, err := countOf(expr, syn, withRec)
			if err != nil {
				t.Fatalf("%v workers=%d recorded: %v", variance, workers, err)
			}
			assertSameEstimate(t, variance.String(), recorded, plain)
		}
	}

	// SUM through the jackknife replication path.
	for _, workers := range []int{1, 4} {
		base := Options{Variance: VarJackknife, Seed: 9, Workers: workers}
		plain, err := sumOf(expr, "b", syn, base)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewCollector()
		withRec := base
		withRec.Recorder = rec
		recorded, err := sumOf(expr, "b", syn, withRec)
		if err != nil {
			t.Fatal(err)
		}
		assertSameEstimate(t, "sum", recorded, plain)
	}
}

// TestRecorderDoesNotChangeSequential extends the bit-identity contract to
// double sampling, where the recorder additionally must not perturb the
// sample-growth draws (two fresh synopses, same seeds, one recorded).
func TestRecorderDoesNotChangeSequential(t *testing.T) {
	run := func(rec obs.Recorder) SequentialResult {
		t.Helper()
		rng := rand.New(rand.NewSource(7))
		expr, syn := drawnJoinSynopsis(t, 400, 300, 40, 11)
		res, err := seqCount(expr, syn, rng, SequentialOptions{
			TargetRelErr: 0.2,
			PilotSize:    30,
			Estimate:     Options{Seed: 3, Workers: 2, Recorder: rec},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	rec := obs.NewCollector()
	rec.EnableTrace()
	recorded := run(rec)
	assertSameEstimate(t, "sequential pilot", recorded.Pilot, plain.Pilot)
	assertSameEstimate(t, "sequential final", recorded.Final, plain.Final)
	if !sameBits(recorded.GrowthFactor, plain.GrowthFactor) || recorded.TargetMet != plain.TargetMet {
		t.Errorf("sequential run diverged: %+v vs %+v", recorded, plain)
	}
	for rel, n := range plain.SampleSizes {
		if recorded.SampleSizes[rel] != n {
			t.Errorf("sample size of %q diverged: %d vs %d", rel, recorded.SampleSizes[rel], n)
		}
	}
}

// TestRecorderObservesEngine checks that a recorded estimation actually
// populates the advertised series: terms, samples consumed, variance
// method, replicates, plan-cache traffic, pool metrics, and spans.
func TestRecorderObservesEngine(t *testing.T) {
	expr, syn := drawnJoinSynopsis(t, 400, 300, 40, 11)
	rec := obs.NewCollector()
	tr := rec.EnableTrace()
	if _, err := countOf(expr, syn, Options{Variance: VarSplitSample, Seed: 1, Workers: 4, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	m := rec.Metrics()
	if got := m.Counter(mTermsTotal).Value(); got < 1 {
		t.Errorf("%s = %v, want >= 1", mTermsTotal, got)
	}
	if got := m.Counter(obs.L(mSamplesRows, "rel", "R")).Value(); got != 40 {
		t.Errorf("samples rows for R = %v, want 40", got)
	}
	if got := m.Counter(mVarMethodSplit).Value(); got != 1 {
		t.Errorf("%s = %v, want 1", mVarMethodSplit, got)
	}
	if got := m.Counter(mRepSplit).Value(); got < 2 {
		t.Errorf("%s = %v, want >= 2", mRepSplit, got)
	}
	if got := m.Counter("relest_plan_built_total").Value(); got < 1 {
		t.Errorf("plan_built_total = %v, want >= 1", got)
	}
	if got := m.Counter("relest_pool_tasks_total").Value(); got < 2 {
		t.Errorf("pool_tasks_total = %v, want >= 2", got)
	}
	if got := m.Histogram(sTerm+"_seconds", nil).Count(); got < 1 {
		t.Errorf("term span histogram count = %d, want >= 1", got)
	}
	var b strings.Builder
	if err := tr.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{sEstimate, sTerm, sVariance, sReplicate} {
		if !strings.Contains(text, want) {
			t.Errorf("trace missing span %q:\n%s", want, text)
		}
	}
}

// TestSamplingRecorderObservesDraws checks the process-global sampling
// recorder: draws are counted, and installing the recorder does not change
// which indices are drawn.
func TestSamplingRecorderObservesDraws(t *testing.T) {
	plainRng := rand.New(rand.NewSource(5))
	plain := sampling.WithoutReplacement(plainRng, 1000, 50)

	rec := obs.NewCollector()
	sampling.SetRecorder(rec)
	defer sampling.SetRecorder(nil)
	recRng := rand.New(rand.NewSource(5))
	recorded := sampling.WithoutReplacement(recRng, 1000, 50)

	if len(plain) != len(recorded) {
		t.Fatalf("sample sizes differ: %d vs %d", len(plain), len(recorded))
	}
	for i := range plain {
		if plain[i] != recorded[i] {
			t.Fatalf("sample diverged at %d: %d vs %d", i, plain[i], recorded[i])
		}
	}
	if got := rec.Metrics().Counter("relest_sampling_draws_total").Value(); got != 1 {
		t.Errorf("draws_total = %v, want 1", got)
	}
	if got := rec.Metrics().Counter("relest_sampling_units_drawn_total").Value(); got != 50 {
		t.Errorf("units_drawn_total = %v, want 50", got)
	}
}
