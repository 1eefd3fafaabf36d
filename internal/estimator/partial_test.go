package estimator

import (
	"math"
	"testing"

	"relest/internal/algebra"
	"relest/internal/relation"
	"relest/internal/sampling"
)

// stratPair builds a deterministic join pair for stratified tests: keys
// spread over a small domain so every parity stratum is non-trivial.
func stratPair() (*relation.Relation, *relation.Relation) {
	var rrows, srows [][]int64
	for i := 0; i < 40; i++ {
		rrows = append(rrows, []int64{int64(i*7) % 8, int64(i)})
		srows = append(srows, []int64{int64(i*5) % 8, int64(100 + i)})
	}
	r := intRelation("R", []string{"a", "id"}, rrows)
	s := intRelation("S", []string{"a", "id"}, srows)
	return r, s
}

func exactJoinCount(r, s *relation.Relation) float64 {
	n := 0
	for i := 0; i < r.Len(); i++ {
		for j := 0; j < s.Len(); j++ {
			if r.Value(i, 0).Int64() == s.Value(j, 0).Int64() {
				n++
			}
		}
	}
	return float64(n)
}

// partialOf runs one stratum's COUNT estimate and packs it as the Partial
// a shard reports.
func partialOf(t *testing.T, e *algebra.Expr, syn *Synopsis, opts Options) Partial {
	t.Helper()
	est, err := countOf(e, syn, opts)
	if err != nil {
		t.Fatalf("stratum estimate (%+v): %v", opts, err)
	}
	return Partial{Value: est.Value, Variance: est.Variance, Method: est.VarianceMethod, Terms: est.Terms}
}

// TestMergeStratifiedSingleStratumBitIdentical pins the merge layer's
// core contract: one stratum holding everything reproduces the direct
// estimate bit for bit, across variance methods and CI constructions.
// This is the property a shards=1 cluster's golden byte-identity rests on.
func TestMergeStratifiedSingleStratumBitIdentical(t *testing.T) {
	r, s := stratPair()
	syn := NewSynopsis()
	rng := sampling.NewSource(11).Rand(0)
	if err := syn.AddDrawn(r, 20, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(s, 20, rng); err != nil {
		t.Fatal(err)
	}
	e := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(s), []algebra.On{{Left: "a", Right: "a"}}, nil, "S"))

	cases := []Options{
		{Seed: 3},
		{Seed: 3, Variance: VarAnalytic},
		{Seed: 5, Variance: VarSplitSample},
		{Seed: 3, Variance: VarNone},
		{Seed: 3, CI: CIChebyshev, Confidence: 0.9},
	}
	for _, opts := range cases {
		want, err := countOf(e, syn, opts)
		if err != nil {
			t.Fatalf("direct estimate (%+v): %v", opts, err)
		}
		got, rep, err := MergeStratified([]Partial{partialOf(t, e, syn, opts)}, 1, opts)
		if err != nil {
			t.Fatalf("MergeStratified(%+v): %v", opts, err)
		}
		if rep.Partial || rep.Total != 1 || rep.Answered != 1 {
			t.Errorf("merge report = %+v, want full single-stratum", rep)
		}
		// NaN != NaN, so compare variance presence separately.
		if got.Value != want.Value || got.StdErr != want.StdErr || got.Lo != want.Lo || got.Hi != want.Hi ||
			got.Confidence != want.Confidence || got.VarianceMethod != want.VarianceMethod || got.Terms != want.Terms {
			t.Errorf("opts %+v: merged %+v differs from direct %+v", opts, got, want)
		}
		if math.IsNaN(got.Variance) != math.IsNaN(want.Variance) || (!math.IsNaN(got.Variance) && got.Variance != want.Variance) {
			t.Errorf("opts %+v: merged variance %v differs from direct %v", opts, got.Variance, want.Variance)
		}
	}
}

// TestMergeStratifiedCensusExact partitions both relations by key parity
// — a shard-like partition in which every join pair is co-located — and
// gives each stratum a census sample. The stratified merge must then be
// exact: per-stratum estimates are exact counts and the strata cover the
// join disjointly.
func TestMergeStratifiedCensusExact(t *testing.T) {
	r, s := stratPair()
	e := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(s), []algebra.On{{Left: "a", Right: "a"}}, nil, "S"))

	opts := Options{Variance: VarAnalytic}
	var strata []Partial
	for parity := 0; parity < 2; parity++ {
		syn := NewSynopsis()
		for _, base := range []*relation.Relation{r, s} {
			var rows []int
			for i := 0; i < base.Len(); i++ {
				if int(base.Value(i, 0).Int64())%2 == parity {
					rows = append(rows, i)
				}
			}
			slice := base.Subset(base.Name(), rows)
			if err := syn.AddSample(slice, slice.Len()); err != nil {
				t.Fatal(err)
			}
		}
		strata = append(strata, partialOf(t, e, syn, opts))
	}

	est, rep, err := MergeStratified(strata, len(strata), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial || rep.Answered != 2 || rep.Total != 2 {
		t.Errorf("merge report = %+v, want full 2-stratum", rep)
	}
	if want := exactJoinCount(r, s); est.Value != want {
		t.Errorf("census stratified estimate = %v, want exact %v", est.Value, want)
	}
	if est.Variance != 0 {
		t.Errorf("census stratified variance = %v, want 0", est.Variance)
	}
}

func TestMergeStratifiedFullSum(t *testing.T) {
	parts := []Partial{
		{Value: 100, Variance: 16, Method: VarAnalytic, Terms: 1},
		{Value: 50, Variance: 9, Method: VarAnalytic, Terms: 1},
	}
	est, rep, err := MergeStratified(parts, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Error("full merge reported partial")
	}
	if est.Value != 150 || est.Variance != 25 || est.StdErr != 5 {
		t.Errorf("merged = %+v, want value 150, variance 25, stderr 5", est)
	}
	if est.VarianceMethod != VarAnalytic || est.Terms != 1 || est.Confidence != 0.95 {
		t.Errorf("merged metadata wrong: %+v", est)
	}
	if !(est.Lo < est.Value && est.Value < est.Hi) {
		t.Errorf("CI [%v, %v] does not bracket %v", est.Lo, est.Hi, est.Value)
	}
}

// TestMergeStratifiedMissingWidens drops strata from a 4-stratum design
// and checks the degradation contract: the point estimate scales by S/a,
// the report flags partial, and the CI is wider than the plain sum's
// would be (the between-strata term prices in the missing strata).
func TestMergeStratifiedMissingWidens(t *testing.T) {
	all := []Partial{
		{Value: 100, Variance: 16, Method: VarAnalytic, Terms: 1},
		{Value: 120, Variance: 16, Method: VarAnalytic, Terms: 1},
		{Value: 80, Variance: 16, Method: VarAnalytic, Terms: 1},
		{Value: 110, Variance: 16, Method: VarAnalytic, Terms: 1},
	}
	full, _, err := MergeStratified(all, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}

	est, rep, err := MergeStratified(all[:2], 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial || rep.Answered != 2 || rep.Total != 4 {
		t.Errorf("merge report = %+v, want partial 2/4", rep)
	}
	if want := (100.0 + 120.0) * 2; est.Value != want {
		t.Errorf("scaled value = %v, want %v", est.Value, want)
	}
	// Within term scaled (S/a)·ΣV = 2·32 = 64, between term
	// S²(1−a/S)s_b²/a = 16·0.5·200/2 = 800.
	if want := 864.0; est.Variance != want {
		t.Errorf("widened variance = %v, want %v", est.Variance, want)
	}
	if est.StdErr <= full.StdErr {
		t.Errorf("partial stderr %v not wider than full merge's %v", est.StdErr, full.StdErr)
	}
}

// TestMergeStratifiedSingleAnswered checks the a=1 fallback: with no
// between-strata spread observable, the within variance scales by (S/a)².
func TestMergeStratifiedSingleAnswered(t *testing.T) {
	est, rep, err := MergeStratified([]Partial{{Value: 100, Variance: 16, Method: VarAnalytic, Terms: 1}}, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial || rep.Answered != 1 {
		t.Errorf("merge report = %+v, want partial 1/4", rep)
	}
	if est.Value != 400 || est.Variance != 256 || est.StdErr != 16 {
		t.Errorf("merged = %+v, want value 400, variance 256, stderr 16", est)
	}
}

// TestMergeStratifiedNoVariance: one stratum without a variance poisons
// the merged CI — a CI over a subset of the uncertainty would be silently
// narrow — while the point estimate still merges.
func TestMergeStratifiedNoVariance(t *testing.T) {
	parts := []Partial{
		{Value: 100, Variance: 16, Method: VarAnalytic, Terms: 1},
		{Value: 50, Variance: math.NaN(), Method: VarNone, Terms: 1},
	}
	est, _, err := MergeStratified(parts, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 150 || !math.IsNaN(est.Variance) || est.VarianceMethod != VarNone {
		t.Errorf("merged = %+v, want value 150 with no variance", est)
	}
	if est.Lo != 0 || est.Hi != 0 || est.StdErr != 0 {
		t.Errorf("no-variance merge must leave the CI empty: %+v", est)
	}
}

func TestMergeStratifiedMixedMethods(t *testing.T) {
	parts := []Partial{
		{Value: 100, Variance: 16, Method: VarAnalytic, Terms: 1},
		{Value: 50, Variance: 9, Method: VarSplitSample, Terms: 1},
	}
	est, _, err := MergeStratified(parts, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Variance != 25 || est.VarianceMethod != VarAuto {
		t.Errorf("mixed-method merge = %+v, want additive variance under VarAuto", est)
	}
}

func TestMergeStratifiedErrors(t *testing.T) {
	if _, _, err := MergeStratified(nil, 2, Options{}); err == nil {
		t.Error("empty partial set did not error")
	}
	parts := []Partial{{Value: 1}, {Value: 2}, {Value: 3}}
	if _, _, err := MergeStratified(parts, 2, Options{}); err == nil {
		t.Error("more partials than strata did not error")
	}
}
