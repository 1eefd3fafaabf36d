package estimator

import (
	"math"
	"testing"
	"time"

	"relest/internal/algebra"
	"relest/internal/relation"
)

// TestGrowTarget pins the phase-two sample-size rule, in particular the
// overflow regime: ceil(n·φ) exceeds the int range long before φ becomes
// an unusual pilot outcome, and the pre-fix int conversion produced an
// implementation-defined (negative) target that silently skipped growth.
func TestGrowTarget(t *testing.T) {
	cases := []struct {
		name        string
		n           int
		phi         float64
		maxFraction float64
		N           int
		want        int
	}{
		{name: "modest growth", n: 100, phi: 4, maxFraction: 1, N: 10000, want: 400},
		{name: "fractional phi rounds up", n: 100, phi: 2.5, maxFraction: 1, N: 10000, want: 250},
		{name: "population clamp", n: 100, phi: 4, maxFraction: 1, N: 250, want: 250},
		{name: "max-fraction clamp", n: 100, phi: 100, maxFraction: 0.05, N: 10000, want: 500},
		{name: "int overflow clamps to N", n: 100, phi: 1e30, maxFraction: 1, N: 5000, want: 5000},
		{name: "int overflow respects max-fraction", n: 100, phi: 1e30, maxFraction: 0.1, N: 5000, want: 500},
		{name: "infinite phi", n: 100, phi: math.Inf(1), maxFraction: 1, N: 5000, want: 5000},
		{name: "phi below one never shrinks", n: 100, phi: 0.5, maxFraction: 1, N: 5000, want: 100},
		{name: "zero sample", n: 0, phi: 10, maxFraction: 1, N: 5000, want: 0},
		{name: "exact boundary", n: 10, phi: 10, maxFraction: 1, N: 100, want: 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := growTarget(tc.n, tc.phi, tc.maxFraction, tc.N)
			if got != tc.want {
				t.Errorf("growTarget(n=%d, phi=%v, maxFrac=%v, N=%d) = %d, want %d",
					tc.n, tc.phi, tc.maxFraction, tc.N, got, tc.want)
			}
			if got < 0 || got > tc.N {
				t.Errorf("target %d outside [0, %d]", got, tc.N)
			}
		})
	}
}

// TestSequentialEmptyRelation: n=0 edge — a query over an empty relation
// must complete both phases cleanly (estimate 0, no growth, no crash) and
// must NOT claim the precision target met: with no sample there is no
// variance estimate to base a verdict on.
func TestSequentialEmptyRelation(t *testing.T) {
	r := intRelation("R", []string{"a"}, nil)
	e := algebra.BaseOf(r)
	rng := testRand(51)
	syn := NewSynopsis()
	if err := syn.AddDrawn(r, 0, rng); err != nil {
		t.Fatal(err)
	}
	res, err := seqCount(e, syn, rng, SequentialOptions{TargetRelErr: 0.05})
	if err != nil {
		t.Fatalf("empty relation: %v", err)
	}
	if res.Final.Value != 0 {
		t.Errorf("estimate over empty relation = %v, want 0", res.Final.Value)
	}
	if res.GrowthFactor != 1 {
		t.Errorf("growth factor = %v, want 1", res.GrowthFactor)
	}
	if res.TargetMet {
		t.Error("TargetMet true with no variance estimate")
	}
}

// TestSequentialZeroVariance: a census-by-pilot (sample = population) has
// exactly zero variance; the stopping rule must report the target met and
// must not attempt further growth.
func TestSequentialZeroVariance(t *testing.T) {
	rows := make([][]int64, 40)
	for i := range rows {
		rows[i] = []int64{int64(i % 7)}
	}
	r := intRelation("R", []string{"a"}, rows)
	e := algebra.BaseOf(r)
	rng := testRand(52)
	syn := NewSynopsis()
	if err := syn.AddDrawn(r, 10, rng); err != nil {
		t.Fatal(err)
	}
	res, err := seqCount(e, syn, rng, SequentialOptions{
		TargetRelErr: 0.05,
		PilotSize:    40, // pilot = census: variance is exactly 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pilot.StdErr != 0 {
		t.Fatalf("census pilot stderr = %v, want 0", res.Pilot.StdErr)
	}
	if res.GrowthFactor != 1 {
		t.Errorf("zero-variance pilot grew the sample: φ=%v", res.GrowthFactor)
	}
	if !res.TargetMet {
		t.Error("zero-variance census should meet any relative-error target")
	}
	if res.Final.Value != 40 {
		t.Errorf("census estimate = %v, want 40", res.Final.Value)
	}
}

// TestSequentialNoVarianceNotMet: when the variance method degrades to
// VarNone (here: a 2-row sample where no method applies), StdErr is zero by
// construction, and before the fix the verdict z·0 ≤ e·|J| reported the
// target met with no evidence at all.
func TestSequentialNoVarianceNotMet(t *testing.T) {
	r := intRelation("R", []string{"a"}, [][]int64{{1}, {2}, {3}})
	e := algebra.BaseOf(r)
	rng := testRand(53)
	syn := NewSynopsis()
	if err := syn.AddDrawn(r, 1, rng); err != nil {
		t.Fatal(err)
	}
	res, err := seqCount(e, syn, rng, SequentialOptions{
		TargetRelErr: 0.05,
		PilotSize:    1,
		MaxFraction:  1.0 / 3.0, // keeps the sample at one row: m<2, no variance method applies
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.VarianceMethod != VarNone {
		t.Skipf("variance method %v unexpectedly available", res.Final.VarianceMethod)
	}
	if res.TargetMet {
		t.Error("TargetMet true although no variance method applied")
	}
}

// TestDeadlineBudgetSmallerThanOneRound: the budget can expire before the
// first round finishes; the contract is still one completed round — the
// best answer the time allowed — never zero rounds or an error.
func TestDeadlineBudgetSmallerThanOneRound(t *testing.T) {
	r, s, e, _ := seqFixtures(t)
	rng := testRand(54)
	syn := NewSynopsis()
	if err := syn.AddDrawn(r, 10, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(s, 10, rng); err != nil {
		t.Fatal(err)
	}
	est, history, err := deadlineCount(e, syn, rng, DeadlineOptions{
		Budget:      time.Nanosecond,
		InitialSize: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 1 {
		t.Errorf("rounds = %d, want exactly 1 for a sub-round budget", len(history))
	}
	if est.Value <= 0 {
		t.Errorf("estimate %v from the single round", est.Value)
	}
}

// TestDeadlineHugeGrowthTerminates: a pathological Growth factor overflows
// the int target after one round; the clamped growth must walk the sample
// to a census and terminate by exhaustion instead of stalling on a
// negative target until the deadline.
func TestDeadlineHugeGrowthTerminates(t *testing.T) {
	rows := make([][]int64, 60)
	for i := range rows {
		rows[i] = []int64{int64(i % 5)}
	}
	r := intRelation("R", []string{"a"}, rows)
	e := algebra.Must(algebra.Select(algebra.BaseOf(r), algebra.Cmp{Col: "a", Op: algebra.EQ, Val: relation.Int(1)}))
	rng := testRand(55)
	syn := NewSynopsis()
	if err := syn.AddDrawn(r, 5, rng); err != nil {
		t.Fatal(err)
	}
	est, history, err := deadlineCount(e, syn, rng, DeadlineOptions{
		Budget:      time.Hour, // termination must come from exhaustion, not the deadline
		InitialSize: 5,
		Growth:      1e18,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := history[len(history)-1]
	if last.SampleSizes["R"] != r.Len() {
		t.Errorf("final sample %v, want census of %d", last.SampleSizes, r.Len())
	}
	if est.Value != 12 {
		t.Errorf("census estimate = %v, want exactly 12", est.Value)
	}
}
