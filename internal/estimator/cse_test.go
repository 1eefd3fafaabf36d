package estimator

import (
	"math"
	"testing"

	"relest/internal/algebra"
	"relest/internal/obs"
	"relest/internal/relation"
)

// cseOverlapFixture builds a synopsis and a 3-way union of joins differing
// only in the selection on T,
//
//	(R ⋈ S ⋈ σ_p1 T) ∪ (R ⋈ S ⋈ σ_p2 T) ∪ (R ⋈ S ⋈ σ_p3 T),
//
// with sample sizes arranged so each main term's plan enumerates R, S, T in
// that order — the shape whose [R, S] prefix the CSE layer shares across
// the three terms.
func cseOverlapFixture(t *testing.T) (*algebra.Expr, *Synopsis) {
	t.Helper()
	rows := func(n int, f func(i int) []int64) [][]int64 {
		out := make([][]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	r := intRelation("R", []string{"a", "b"}, rows(60, func(i int) []int64 {
		return []int64{int64(i % 10), int64(i % 24)}
	}))
	s := intRelation("S", []string{"a", "c"}, rows(150, func(i int) []int64 {
		return []int64{int64(i % 10), int64(i)}
	}))
	tt := intRelation("T", []string{"b", "x"}, rows(400, func(i int) []int64 {
		return []int64{int64(i % 24), int64(i % 90)}
	}))
	syn := NewSynopsis()
	rng := testRand(11)
	if err := syn.AddDrawn(r, 40, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(s, 90, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(tt, 260, rng); err != nil {
		t.Fatal(err)
	}
	term := func(lo, hi int64) *algebra.Expr {
		rs := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(s),
			[]algebra.On{{Left: "a", Right: "a"}}, nil, "s_"))
		sel := algebra.Must(algebra.Select(algebra.BaseOf(tt), algebra.And{
			algebra.Cmp{Col: "x", Op: algebra.GE, Val: relation.Int(lo)},
			algebra.Cmp{Col: "x", Op: algebra.LT, Val: relation.Int(hi)},
		}))
		return algebra.Must(algebra.Join(rs, sel, []algebra.On{{Left: "b", Right: "b"}}, nil, "t_"))
	}
	e := algebra.Must(algebra.Union(algebra.Must(algebra.Union(term(0, 30), term(30, 60))), term(60, 90)))
	return e, syn
}

// TestEstimateCSEBitIdentity is the tentpole's hard oracle at the
// estimator level: for workers ∈ {1, 4} and CSE on/off, the estimate —
// value and variance — is bit-identical, and the CSE-on run actually
// shares subplans (asserted through the metric, so the equality is not
// vacuous).
func TestEstimateCSEBitIdentity(t *testing.T) {
	e, syn := cseOverlapFixture(t)
	type cfg struct {
		workers int
		disable bool
	}
	var ref Estimate
	first := true
	for _, c := range []cfg{{1, false}, {1, true}, {4, false}, {4, true}} {
		rec := obs.NewCollector()
		est, err := countOf(e, syn, Options{
			Variance:   VarSplitSample,
			Seed:       5,
			Workers:    c.workers,
			DisableCSE: c.disable,
			Recorder:   rec,
		})
		if err != nil {
			t.Fatalf("workers=%d cse=%v: %v", c.workers, !c.disable, err)
		}
		sharedMetric := rec.Metrics().Counter(obs.MetricCSESubplansShared).Value()
		if c.disable && sharedMetric != 0 {
			t.Errorf("workers=%d: DisableCSE run still shared %v subplans", c.workers, sharedMetric)
		}
		if !c.disable && sharedMetric < 2 {
			t.Errorf("workers=%d: CSE run shared %v subplans, want >= 2 (three terms share R⋈S)",
				c.workers, sharedMetric)
		}
		if first {
			ref, first = est, false
			if est.Value <= 0 {
				t.Fatalf("degenerate fixture: estimate %v", est.Value)
			}
			continue
		}
		if math.Float64bits(est.Value) != math.Float64bits(ref.Value) {
			t.Errorf("workers=%d cse=%v: value %v != reference %v", c.workers, !c.disable, est.Value, ref.Value)
		}
		if math.Float64bits(est.Variance) != math.Float64bits(ref.Variance) {
			t.Errorf("workers=%d cse=%v: variance %v != reference %v", c.workers, !c.disable, est.Variance, ref.Variance)
		}
		if est.Lo != ref.Lo || est.Hi != ref.Hi {
			t.Errorf("workers=%d cse=%v: CI [%v, %v] != reference [%v, %v]",
				c.workers, !c.disable, est.Lo, est.Hi, ref.Lo, ref.Hi)
		}
	}
}

// TestSumCSEBitIdentity runs the same matrix over the SUM estimator, whose
// enumeration path (EnumeratePart) replays shared tables.
func TestSumCSEBitIdentity(t *testing.T) {
	e, syn := cseOverlapFixture(t)
	var ref Estimate
	first := true
	for _, workers := range []int{1, 4} {
		for _, disable := range []bool{false, true} {
			est, err := sumOf(e, "c", syn, Options{
				Seed:       5,
				Workers:    workers,
				DisableCSE: disable,
			})
			if err != nil {
				t.Fatalf("workers=%d cse=%v: %v", workers, !disable, err)
			}
			if first {
				ref, first = est, false
				continue
			}
			if math.Float64bits(est.Value) != math.Float64bits(ref.Value) {
				t.Errorf("workers=%d cse=%v: sum %v != reference %v", workers, !disable, est.Value, ref.Value)
			}
			if math.Float64bits(est.Variance) != math.Float64bits(ref.Variance) {
				t.Errorf("workers=%d cse=%v: variance %v != reference %v", workers, !disable, est.Variance, ref.Variance)
			}
		}
	}
}
