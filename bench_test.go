// Benchmarks regenerating every table and figure of the evaluation
// (DESIGN.md experiment index T1–T7, F1–F4) at quick scale, plus
// micro-benchmarks for the synopsis hot paths. Run the full-scale tables
// with `go run ./cmd/experiments -full`.
package relest_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"relest"
	"relest/internal/bench"
	"relest/internal/relation"
	"relest/internal/sketch"
)

// experimentBench runs one experiment table per iteration.
func experimentBench(b *testing.B, id string) {
	b.Helper()
	e, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tab := e.Run(42, bench.Scale{Quick: true})
		if len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// One benchmark per table/figure of the evaluation.

func BenchmarkT1Selection(b *testing.B)   { experimentBench(b, "T1") }
func BenchmarkT2Join(b *testing.B)        { experimentBench(b, "T2") }
func BenchmarkT3SetOps(b *testing.B)      { experimentBench(b, "T3") }
func BenchmarkT4Distinct(b *testing.B)    { experimentBench(b, "T4") }
func BenchmarkT5Variance(b *testing.B)    { experimentBench(b, "T5") }
func BenchmarkT6Baselines(b *testing.B)   { experimentBench(b, "T6") }
func BenchmarkT7SelfJoin(b *testing.B)    { experimentBench(b, "T7") }
func BenchmarkF1Composite(b *testing.B)   { experimentBench(b, "F1") }
func BenchmarkF2Coverage(b *testing.B)    { experimentBench(b, "F2") }
func BenchmarkF3Deadline(b *testing.B)    { experimentBench(b, "F3") }
func BenchmarkF4Incremental(b *testing.B) { experimentBench(b, "F4") }

// Micro-benchmarks: the synopsis hot paths behind the tables.

// BenchmarkPointEstimateJoin measures one join COUNT estimate from fixed
// samples (n=1000 per relation) — the per-query cost of the method.
func BenchmarkPointEstimateJoin(b *testing.B) {
	rng := relest.Seeded(1)
	r1, r2 := relest.JoinPair(rng, relest.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: 2_000, N1: 20_000, N2: 20_000,
		Correlation: relest.Independent,
	})
	e := relest.Must(relest.Join(relest.BaseOf(r1), relest.BaseOf(r2),
		[]relest.On{{Left: "a", Right: "a"}}, nil, "R2"))
	syn := relest.NewSynopsis()
	if err := syn.AddDrawn(r1, 1_000, rng); err != nil {
		b.Fatal(err)
	}
	if err := syn.AddDrawn(r2, 1_000, rng); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := count(e, syn, relest.Options{Variance: relest.VarNone}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointEstimateWithVariance includes the closed-form variance and
// CI construction.
func BenchmarkPointEstimateWithVariance(b *testing.B) {
	rng := relest.Seeded(2)
	r1, r2 := relest.JoinPair(rng, relest.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: 2_000, N1: 20_000, N2: 20_000,
		Correlation: relest.Independent,
	})
	e := relest.Must(relest.Join(relest.BaseOf(r1), relest.BaseOf(r2),
		[]relest.On{{Left: "a", Right: "a"}}, nil, "R2"))
	syn := relest.NewSynopsis()
	if err := syn.AddDrawn(r1, 1_000, rng); err != nil {
		b.Fatal(err)
	}
	if err := syn.AddDrawn(r2, 1_000, rng); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := count(e, syn, relest.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeadlineRounds measures the work of one deadline request
// without its clock: eight rounds at fixed targets, 100 doubling to
// 25 600 rows per relation of a 100k-row join pair, each round extending
// a private clone of a 100-row synopsis and estimating the join with the
// closed-form variance. It prices what a round pays for the rows it adds:
// the draw, the grown sample view and its index, and the point estimate
// and variance over the grown sample.
func BenchmarkDeadlineRounds(b *testing.B) {
	rng := relest.Seeded(7)
	r1, r2 := relest.JoinPair(rng, relest.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: 2_000, N1: 100_000, N2: 100_000,
		Correlation: relest.Independent,
	})
	e := relest.Must(relest.Join(relest.BaseOf(r1), relest.BaseOf(r2),
		[]relest.On{{Left: "a", Right: "a"}}, nil, "R2"))
	base := relest.NewSynopsis()
	for _, r := range []*relation.Relation{r1, r2} {
		if err := base.AddDrawn(r, 100, rng); err != nil {
			b.Fatal(err)
		}
	}
	opts := relest.Options{Variance: relest.VarAnalytic, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syn, draw := base.Clone(), relest.Seeded(int64(i))
		for target := 100; target <= 25_600; target *= 2 {
			for _, name := range []string{r1.Name(), r2.Name()} {
				n, _ := syn.SampleSize(name)
				if err := syn.ExtendSample(name, target-n, draw); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := count(e, syn, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDeadlineRequest measures one whole deadline request without
// its clock: DeadlineCountContext on a private clone of a 100-row
// synopsis of a 25 600-row join pair, with a budget no round reaches, so
// the rounds run at 100, 200, …, 25 600 rows per relation and stop at the
// census. Unlike BenchmarkDeadlineRounds, whose rounds are separate
// estimates, the rounds here carry their state forward as a request's do:
// each pays for the rows it adds.
func BenchmarkDeadlineRequest(b *testing.B) {
	rng := relest.Seeded(7)
	r1, r2 := relest.JoinPair(rng, relest.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: 2_000, N1: 25_600, N2: 25_600,
		Correlation: relest.Independent,
	})
	e := relest.Must(relest.Join(relest.BaseOf(r1), relest.BaseOf(r2),
		[]relest.On{{Left: "a", Right: "a"}}, nil, "R2"))
	base := relest.NewSynopsis()
	for _, r := range []*relation.Relation{r1, r2} {
		if err := base.AddDrawn(r, 100, rng); err != nil {
			b.Fatal(err)
		}
	}
	opts := relest.DeadlineOptions{
		Budget: time.Hour, InitialSize: 100, Growth: 2,
		Estimate: relest.Options{Variance: relest.VarAnalytic, Workers: 1},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i)
		_, steps, err := relest.DeadlineCountContext(context.Background(), e, base.Clone(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(steps) != 9 {
			b.Fatalf("%d rounds, want 9", len(steps))
		}
	}
}

// varianceBenchSynopsis builds the shared join fixture for the variance
// benchmarks: 20k-row relations, n=1000 samples.
func varianceBenchSynopsis(b *testing.B, seed int64) (*relest.Expr, *relest.Synopsis) {
	b.Helper()
	rng := relest.Seeded(seed)
	r1, r2 := relest.JoinPair(rng, relest.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: 2_000, N1: 20_000, N2: 20_000,
		Correlation: relest.Independent,
	})
	e := relest.Must(relest.Join(relest.BaseOf(r1), relest.BaseOf(r2),
		[]relest.On{{Left: "a", Right: "a"}}, nil, "R2"))
	syn := relest.NewSynopsis()
	if err := syn.AddDrawn(r1, 1_000, rng); err != nil {
		b.Fatal(err)
	}
	if err := syn.AddDrawn(r2, 1_000, rng); err != nil {
		b.Fatal(err)
	}
	return e, syn
}

// benchCountVariance measures a full estimate (point + variance) with the
// given method and worker bound.
func benchCountVariance(b *testing.B, method relest.VarianceMethod, workers int) {
	b.ReportAllocs()
	e, syn := varianceBenchSynopsis(b, 6)
	opts := relest.Options{Variance: method, Seed: 42, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := count(e, syn, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJackknifeVariance measures the delete-one jackknife over the
// join fixture (2000 sampling units): the single-pass engine derives all
// replicates from one enumeration instead of 2000 re-evaluations.
func BenchmarkJackknifeVariance(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchCountVariance(b, relest.VarJackknife, 1) })
	b.Run("parallel", func(b *testing.B) { benchCountVariance(b, relest.VarJackknife, 0) })
}

// BenchmarkSplitSampleVariance measures the g=8 split-sample method, one
// labelled pass per term; the parallel variant fans a pass that
// enumerates across its groups' parts (this join tallies, serially).
func BenchmarkSplitSampleVariance(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchCountVariance(b, relest.VarSplitSample, 1) })
	b.Run("parallel", func(b *testing.B) { benchCountVariance(b, relest.VarSplitSample, 0) })
}

// BenchmarkJoinVariance guards the join COUNT's variance passes on the
// heavy benchmark's shape: 2 000-row samples of each side of a 100k-row
// zipf pair (domain 2 000, skews 0.5 and 1.0), estimated with the
// two-relation closed form and with the single-pass jackknife, serially.
// Each estimate's variance reads one moment pass.
func BenchmarkJoinVariance(b *testing.B) {
	rng := relest.Seeded(7)
	r1, r2 := relest.JoinPair(rng, relest.JoinPairSpec{
		Z1: 0.5, Z2: 1.0, Domain: 2_000, N1: 100_000, N2: 100_000,
		Correlation: relest.Independent,
	})
	e := relest.Must(relest.Join(relest.BaseOf(r1), relest.BaseOf(r2),
		[]relest.On{{Left: "a", Right: "a"}}, nil, "R2"))
	syn := relest.NewSynopsis()
	if err := syn.AddDrawn(r1, 2_000, rng); err != nil {
		b.Fatal(err)
	}
	if err := syn.AddDrawn(r2, 2_000, rng); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		method relest.VarianceMethod
	}{{"analytic", relest.VarAnalytic}, {"jackknife", relest.VarJackknife}} {
		b.Run(c.name, func(b *testing.B) {
			opts := relest.Options{Variance: c.method, Seed: 42, Workers: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := count(e, syn, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalUpdate measures the per-tuple cost of maintaining
// the incremental synopsis (reservoir + random pairing).
func BenchmarkIncrementalUpdate(b *testing.B) {
	rng := relest.Seeded(3)
	inc := relest.NewIncrementalWithOptions(relest.IncrementalOptions{Capacity: 1_000, RNG: rng})
	if err := inc.Track("R", relest.JoinSchema()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := relest.Tuple{relest.Int(int64(i % 5_000)), relest.Int(int64(i))}
		if err := inc.Insert("R", t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketchUpdate measures the per-tuple cost of the AMS baseline at
// the default 100 atomic counters, for comparison with the sampling
// synopsis updates.
func BenchmarkSketchUpdate(b *testing.B) {
	s := sketch.New(sketch.Config{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i % 5_000))
	}
}

// BenchmarkSynopsisDraw measures drawing a fresh 1% SRSWOR synopsis from a
// 100k-row relation.
func BenchmarkSynopsisDraw(b *testing.B) {
	rng := relest.Seeded(4)
	r := relest.ZipfRelation(rng, "R", 0.5, 10_000, 100_000, relest.MapRandom)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syn := relest.NewSynopsis()
		if err := syn.AddDrawn(r, 1_000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// footprintFixture is the 2×20k-row join fixture the storage benchmarks
// share.
func footprintFixture() (*relest.Relation, *relest.Relation) {
	rng := relest.Seeded(1)
	return relest.JoinPair(rng, relest.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: 2_000, N1: 20_000, N2: 20_000,
		Correlation: relest.Independent,
	})
}

// BenchmarkBuildIndex measures the code index build over the 20k-row join
// fixture (the per-plan cost of every enumerated join step).
func BenchmarkBuildIndex(b *testing.B) {
	r1, _ := footprintFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if relation.BuildIndex(r1, []int{0}) == nil {
			b.Fatal("no index")
		}
	}
}

// BenchmarkRelationFootprint reports the resident bytes per row of the
// join fixture two ways: heap-bytes/row is the GC-measured heap growth
// from building both relations (comparable to the pre-columnar baseline,
// measured identically), bytes/row is the engine's own accounting
// (column vectors + dictionaries + null bitmaps, Relation.Bytes).
func BenchmarkRelationFootprint(b *testing.B) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r1, r2 := footprintFixture()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	rows := float64(r1.Len() + r2.Len())
	heap := float64(m1.HeapAlloc - m0.HeapAlloc)
	accounted := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accounted = r1.Bytes() + r2.Bytes()
	}
	b.ReportMetric(heap/rows, "heap-bytes/row")
	b.ReportMetric(float64(accounted)/rows, "bytes/row")
}

// overlapBenchFixture builds the multi-term workload: a 3-way union
// of 5-relation join chains that differ only in the selection on the last
// relation,
//
//	R ⋈ S ⋈ U ⋈ V ⋈ W ⋈ X ⋈ Y ⋈ Z ⋈ (σ_{x∈[0,30)}T ∪ σ_{x∈[30,60)}T ∪ σ_{x∈[60,90)}T),
//
// an 8-step join chain over a 3-way union of disjoint selections. The
// counting polynomial expands the union into 7 terms (3 singles, 3
// pairs, 1 triple) that each enumerate the [R..Z] join prefix, while the
// disjoint x-ranges kill every cross term at its final probe. Sample
// sizes ascend R < S < … < Z < σT so each term plans the chain in the
// same order with the prefix first.
func overlapBenchFixture(b *testing.B) (*relest.Expr, *relest.Synopsis) {
	b.Helper()
	build := func(name string, n int, cols []string, row func(i int) []int64) *relest.Relation {
		specs := make([]relest.Column, len(cols))
		for i, c := range cols {
			specs[i] = relest.Col(c, relest.KindInt)
		}
		rel := relest.NewRelation(name, relest.MustSchema(specs...))
		for i := 0; i < n; i++ {
			vals := row(i)
			tup := make(relest.Tuple, len(vals))
			for j, v := range vals {
				tup[j] = relest.Int(v)
			}
			rel.MustAppend(tup)
		}
		return rel
	}
	// R⋈S fans out 30x on a; the later chain keys are near-unique so the
	// 30k prefix assignments flow flat into the T probes.
	r := build("R", 1000, []string{"a"}, func(i int) []int64 { return []int64{int64(i % 50)} })
	s := build("S", 1500, []string{"a", "c"}, func(i int) []int64 { return []int64{int64(i % 50), int64(i)} })
	u := build("U", 1600, []string{"c", "d"}, func(i int) []int64 { return []int64{int64(i), int64(i)} })
	v := build("V", 1700, []string{"d", "g"}, func(i int) []int64 { return []int64{int64(i), int64(i)} })
	w := build("W", 1800, []string{"g", "h"}, func(i int) []int64 { return []int64{int64(i), int64(i)} })
	x := build("X", 1900, []string{"h", "p"}, func(i int) []int64 { return []int64{int64(i), int64(i)} })
	y := build("Y", 2000, []string{"p", "q"}, func(i int) []int64 { return []int64{int64(i), int64(i)} })
	z := build("Z", 2100, []string{"q", "t"}, func(i int) []int64 { return []int64{int64(i), int64(i * 3 % 5000)} })
	tt := build("T", 6000, []string{"t", "x"}, func(i int) []int64 { return []int64{int64(i % 5000), int64(i % 90)} })
	syn := relest.NewSynopsis()
	rng := relest.Seeded(17)
	for _, rel := range []*relest.Relation{r, s, u, v, w, x, y, z, tt} {
		if err := syn.AddDrawn(rel, rel.Len(), rng); err != nil {
			b.Fatal(err)
		}
	}
	sel := func(lo, hi int64) *relest.Expr {
		return relest.Must(relest.Select(relest.BaseOf(tt), relest.And{
			relest.Cmp{Col: "x", Op: relest.GE, Val: relest.Int(lo)},
			relest.Cmp{Col: "x", Op: relest.LT, Val: relest.Int(hi)},
		}))
	}
	union := relest.Must(relest.Union(relest.Must(relest.Union(sel(0, 30), sel(30, 60))), sel(60, 90)))
	chain := relest.Must(relest.Join(relest.BaseOf(r), relest.BaseOf(s),
		[]relest.On{{Left: "a", Right: "a"}}, nil, "s_"))
	for _, next := range []struct {
		rel *relest.Relation
		on  string
		pre string
	}{{u, "c", "u_"}, {v, "d", "v_"}, {w, "g", "w_"}, {x, "h", "x_"}, {y, "p", "y_"}, {z, "q", "z_"}} {
		chain = relest.Must(relest.Join(chain, relest.BaseOf(next.rel),
			[]relest.On{{Left: next.on, Right: next.on}}, nil, next.pre))
	}
	e := relest.Must(relest.Join(chain, union, []relest.On{{Left: "t", Right: "t"}}, nil, "t_"))
	return e, syn
}

// BenchmarkMultiTermOverlap measures multi-term estimate throughput: one
// full COUNT estimate of the overlapping 3-way union per iteration.
func BenchmarkMultiTermOverlap(b *testing.B) {
	e, syn := overlapBenchFixture(b)
	opts := relest.Options{Variance: relest.VarNone}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := count(e, syn, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactCountJoin is the cost the estimators avoid: the exact
// hash-join COUNT over the full relations.
func BenchmarkExactCountJoin(b *testing.B) {
	rng := relest.Seeded(5)
	r1, r2 := relest.JoinPair(rng, relest.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: 2_000, N1: 20_000, N2: 20_000,
		Correlation: relest.Independent,
	})
	e := relest.Must(relest.Join(relest.BaseOf(r1), relest.BaseOf(r2),
		[]relest.On{{Left: "a", Right: "a"}}, nil, "R2"))
	cat := relest.MapCatalog{"R1": r1, "R2": r2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relest.ExactCount(e, cat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectCount is the σ scan alone: the exact COUNT of
// σ_{a<1000} over one relation of a 100k-row join pair, which term
// evaluation answers by filtering the candidate list through the typed
// Cmp kernel and counting it.
func BenchmarkSelectCount(b *testing.B) {
	rng := relest.Seeded(5)
	r1, _ := relest.JoinPair(rng, relest.JoinPairSpec{
		Z1: 0.5, Z2: 1.0, Domain: 2_000, N1: 100_000, N2: 100_000,
		Correlation: relest.Independent,
	})
	e := relest.Must(relest.Select(relest.BaseOf(r1),
		relest.Cmp{Col: "a", Op: relest.LT, Val: relest.Int(1000)}))
	cat := relest.MapCatalog{"R1": r1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relest.ExactCount(e, cat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA1Stratified(b *testing.B)   { experimentBench(b, "A1") }
func BenchmarkA2PageSampling(b *testing.B) { experimentBench(b, "A2") }

func BenchmarkA3Planner(b *testing.B) { experimentBench(b, "A3") }

// Tier benchmarks: the same sketch-eligible equi-join
// COUNT answered by each tier of one prepared Estimator handle. The
// sketch tier reads 2·Groups·GroupSize prebuilt counters; the sample
// tier runs the counting polynomial over the n=1000-per-relation
// samples. Their ratio is the per-query win that pays for keeping the
// sketches resident.
func benchTierCount(b *testing.B, policy relest.TierPolicy) {
	b.Helper()
	rng := relest.Seeded(19)
	r1, r2 := relest.JoinPair(rng, relest.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: 2_000, N1: 20_000, N2: 20_000,
		Correlation: relest.Independent,
	})
	syn, err := relest.Draw([]*relest.Relation{r1, r2}, 0.05, 20, rng)
	if err != nil {
		b.Fatal(err)
	}
	e := relest.Must(relest.Join(relest.BaseOf(r1), relest.BaseOf(r2),
		[]relest.On{{Left: "a", Right: "a"}}, nil, "R2"))
	h := relest.New(syn, relest.WithTierPolicy(policy), relest.WithPrecision(0.5))
	ctx := context.Background()
	req := relest.Request{Expr: e}
	if _, err := h.Count(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Count(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTierSketchCount(b *testing.B) { benchTierCount(b, relest.TierSketchOnly) }
func BenchmarkTierSampleCount(b *testing.B) { benchTierCount(b, relest.TierSampleOnly) }
