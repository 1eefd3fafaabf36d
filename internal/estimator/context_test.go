package estimator

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"relest/internal/algebra"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/workload"
)

// ctxFixture builds two modest Zipf relations and a drawn synopsis, plus
// the join expression over them. Fresh per call so mutation (extension)
// never leaks between tests.
func ctxFixture(t *testing.T, n, sample int) (*algebra.Expr, *Synopsis) {
	t.Helper()
	rng := sampling.Seeded(11)
	r1 := workload.ZipfRelation(rng, "R1", 0.5, 200, n, workload.MapRandom)
	r2 := workload.ZipfRelation(rng, "R2", 1.0, 200, n, workload.MapRandom)
	syn := NewSynopsis()
	if err := syn.AddDrawn(r1, sample, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(r2, sample, rng); err != nil {
		t.Fatal(err)
	}
	e := algebra.Must(algebra.Join(algebra.BaseOf(r1), algebra.BaseOf(r2),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "r2_"))
	return e, syn
}

// TestCountContextBackgroundIdentity: a live context that is never
// cancelled is bit-identical to a background one, for every variance
// method and worker count — the polling changes nothing.
func TestCountContextBackgroundIdentity(t *testing.T) {
	live, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, method := range []VarianceMethod{VarAuto, VarSplitSample, VarJackknife} {
		for _, workers := range []int{1, 4} {
			e, syn := ctxFixture(t, 2000, 200)
			opts := Options{Variance: method, Workers: workers, Seed: 3}
			want, err := countCtx(context.Background(), e, syn, opts)
			if err != nil {
				t.Fatalf("%v/%d: %v", method, workers, err)
			}
			got, err := countCtx(live, e, syn, opts)
			if err != nil {
				t.Fatalf("%v/%d: %v", method, workers, err)
			}
			if math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
				math.Float64bits(got.StdErr) != math.Float64bits(want.StdErr) {
				t.Errorf("%v/%d: live context %v ± %v != background %v ± %v",
					method, workers, got.Value, got.StdErr, want.Value, want.StdErr)
			}
		}
	}
}

// TestContextCancelledUpFront: an already-cancelled context fails every
// context-aware entry point with an error carrying context.Canceled, and
// the zero result — never a partial estimate.
func TestContextCancelledUpFront(t *testing.T) {
	e, syn := ctxFixture(t, 500, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if est, err := countCtx(ctx, e, syn, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Count: want context.Canceled, got %v", err)
	} else if est != (Estimate{}) {
		t.Errorf("Count: partial estimate %+v alongside error", est)
	}
	if _, err := sumCtx(ctx, e, "id", syn, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Sum: want context.Canceled, got %v", err)
	}
	if _, err := avgCtx(ctx, e, "id", syn, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Avg: want context.Canceled, got %v", err)
	}
	if _, err := SequentialCountContext(ctx, e, syn, SequentialOptions{TargetRelErr: 0.1}); !errors.Is(err, context.Canceled) {
		t.Errorf("SequentialCountContext: want context.Canceled, got %v", err)
	}
	if est, _, err := DeadlineCountContext(ctx, e, syn, DeadlineOptions{Budget: time.Second}); !errors.Is(err, context.Canceled) {
		t.Errorf("DeadlineCountContext: want context.Canceled, got %v", err)
	} else if est != (Estimate{}) {
		t.Errorf("DeadlineCountContext: partial estimate %+v alongside error", est)
	}
}

// TestDeadlineContextCancelMidRun: a context that expires while rounds are
// still growing aborts the run between rounds (or between terms) with a
// DeadlineExceeded cause, well before the estimator's own generous budget.
// The θ-join below has no index path, so later rounds enumerate a growing
// m² space and the run cannot finish before the context fires.
func TestDeadlineContextCancelMidRun(t *testing.T) {
	rng := sampling.Seeded(5)
	r1 := workload.ZipfRelation(rng, "R1", 0.5, 500, 4000, workload.MapRandom)
	r2 := workload.ZipfRelation(rng, "R2", 0.5, 500, 4000, workload.MapRandom)
	syn := NewSynopsis()
	if err := syn.AddDrawn(r1, 20, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(r2, 20, rng); err != nil {
		t.Fatal(err)
	}
	prod := algebra.Must(algebra.Product(algebra.BaseOf(r1), algebra.BaseOf(r2), "r2_"))
	e := algebra.Must(algebra.Select(prod, algebra.ColCmp{A: "a", Op: algebra.LT, B: "r2_.a"}))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	est, steps, err := DeadlineCountContext(ctx, e, syn, DeadlineOptions{
		Budget:      time.Hour, // the context, not the budget, must end this run
		InitialSize: 20,
		Estimate:    Options{Variance: VarNone},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v (after %v)", err, time.Since(start))
	}
	if est != (Estimate{}) || steps != nil {
		t.Errorf("cancelled run leaked a partial result: %+v, %d steps", est, len(steps))
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v; the between-rounds poll is not being honoured", elapsed)
	}
}

// TestSequentialOptionsRNGFold: an explicit RNG and the Seed it was
// seeded with drive identical runs, and Seed alone reproduces runs
// without an explicit RNG.
func TestSequentialOptionsRNGFold(t *testing.T) {
	opts := SequentialOptions{TargetRelErr: 0.10, PilotSize: 150}

	e1, syn1 := ctxFixture(t, 2000, 50)
	o1 := opts
	o1.RNG = sampling.Seeded(7)
	viaRNG, err := SequentialCountContext(context.Background(), e1, syn1, o1)
	if err != nil {
		t.Fatal(err)
	}
	e2, syn2 := ctxFixture(t, 2000, 50)
	o2 := opts
	o2.Seed = 7
	viaSeed, err := SequentialCountContext(context.Background(), e2, syn2, o2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(viaRNG.Final.Value) != math.Float64bits(viaSeed.Final.Value) ||
		math.Float64bits(viaRNG.Final.StdErr) != math.Float64bits(viaSeed.Final.StdErr) {
		t.Errorf("RNG and Seed diverged: RNG %v ± %v, Seed %v ± %v",
			viaRNG.Final.Value, viaRNG.Final.StdErr, viaSeed.Final.Value, viaSeed.Final.StdErr)
	}

	// Seed-only reproducibility.
	e3, syn3 := ctxFixture(t, 2000, 50)
	o3 := opts
	o3.Seed = 99
	a, err := SequentialCountContext(context.Background(), e3, syn3, o3)
	if err != nil {
		t.Fatal(err)
	}
	e4, syn4 := ctxFixture(t, 2000, 50)
	b, err := SequentialCountContext(context.Background(), e4, syn4, o3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.Final.Value) != math.Float64bits(b.Final.Value) {
		t.Errorf("same Seed, different runs: %v vs %v", a.Final.Value, b.Final.Value)
	}
}

// TestDeadlineOptionsRNGFold: same for deadline mode, on a fixture small
// enough that both runs exhaust their samples deterministically.
func TestDeadlineOptionsRNGFold(t *testing.T) {
	run := func(explicitRNG bool) (Estimate, int) {
		e, syn := ctxFixture(t, 400, 40)
		opts := DeadlineOptions{Budget: time.Minute, InitialSize: 50, Estimate: Options{Variance: VarSplitSample}, Seed: 13}
		if explicitRNG {
			opts.RNG, opts.Seed = sampling.Seeded(13), 0
		}
		est, steps, err := DeadlineCountContext(context.Background(), e, syn, opts)
		if err != nil {
			t.Fatal(err)
		}
		return est, len(steps)
	}
	rngEst, rngSteps := run(true)
	seedEst, seedSteps := run(false)
	if math.Float64bits(rngEst.Value) != math.Float64bits(seedEst.Value) || rngSteps != seedSteps {
		t.Errorf("RNG and Seed diverged: RNG %v after %d rounds, Seed %v after %d rounds",
			rngEst.Value, rngSteps, seedEst.Value, seedSteps)
	}
}

// TestIncrementalOptionsSeed: NewIncrementalWithOptions with a Seed is
// reproducible, and equivalent to an explicit RNG seeded the same.
func TestIncrementalOptionsSeed(t *testing.T) {
	build := func(inc *Incremental) float64 {
		t.Helper()
		rng := sampling.Seeded(3)
		r := workload.ZipfRelation(rng, "S", 0.8, 100, 3000, workload.MapRandom)
		if err := inc.Track("S", r.Schema()); err != nil {
			t.Fatal(err)
		}
		var ferr error
		r.Each(func(i int, tup relation.Tuple) bool {
			if err := inc.Insert("S", tup); err != nil {
				ferr = err
				return false
			}
			return true
		})
		if ferr != nil {
			t.Fatal(ferr)
		}
		syn, err := inc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		est, err := countOf(algebra.Base("S", r.Schema()), syn, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return est.Value
	}
	a := build(NewIncrementalWithOptions(IncrementalOptions{Capacity: 200, Seed: 21}))
	b := build(NewIncrementalWithOptions(IncrementalOptions{Capacity: 200, Seed: 21}))
	c := build(NewIncrementalWithOptions(IncrementalOptions{Capacity: 200, RNG: sampling.Seeded(21)}))
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("same Seed, different snapshots: %v vs %v", a, b)
	}
	if math.Float64bits(a) != math.Float64bits(c) {
		t.Errorf("Seed and explicit RNG diverged: %v vs %v", a, c)
	}
}
