package estimator

import (
	"context"
	"math"
	"testing"
	"time"

	"relest/internal/algebra"
	"relest/internal/relation"
)

// seqFixtures builds two relations whose join size is large enough for
// relative-error targets to be meaningful.
func seqFixtures(t *testing.T) (*relation.Relation, *relation.Relation, *algebra.Expr, int64) {
	t.Helper()
	rng := testRand(41)
	rows := make([][]int64, 0, 4000)
	for i := 0; i < 4000; i++ {
		rows = append(rows, []int64{int64(rng.Intn(100)), int64(i)})
	}
	r := intRelation("R", []string{"a", "id"}, rows)
	rows2 := make([][]int64, 0, 3000)
	for i := 0; i < 3000; i++ {
		rows2 = append(rows2, []int64{int64(rng.Intn(100)), int64(i)})
	}
	s := intRelation("S", []string{"a", "id"}, rows2)
	e := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(s), []algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
	want, err := algebra.Count(e, algebra.MapCatalog{"R": r, "S": s})
	if err != nil {
		t.Fatal(err)
	}
	return r, s, e, want
}

func TestSequentialCount(t *testing.T) {
	r, s, e, want := seqFixtures(t)
	rng := testRand(43)
	syn := NewSynopsis()
	if err := syn.AddDrawn(r, 50, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(s, 50, rng); err != nil {
		t.Fatal(err)
	}
	res, err := seqCount(e, syn, rng, SequentialOptions{
		TargetRelErr: 0.05,
		PilotSize:    150,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The pilot must have run at pilot size, on samples of the request's
	// own: the caller's synopsis is read, never grown.
	if n := res.SampleSizes["R"]; n < 150 {
		t.Errorf("pilot did not extend R sample: n=%d", n)
	}
	if n, _ := syn.SampleSize("R"); n != 50 {
		t.Errorf("the request grew the caller's R sample to %d rows", n)
	}
	// Samples grew beyond the pilot when the target demanded it.
	if res.GrowthFactor > 1 {
		if res.SampleSizes["R"] <= 150 && res.SampleSizes["S"] <= 150 {
			t.Errorf("growth factor %v but samples not grown: %v", res.GrowthFactor, res.SampleSizes)
		}
	}
	// Final estimate should be close to truth (generous 5σ bound).
	if res.Final.StdErr > 0 {
		zdist := math.Abs(res.Final.Value-float64(want)) / res.Final.StdErr
		if zdist > 6 {
			t.Errorf("final estimate %v is %.1fσ from %d", res.Final.Value, zdist, want)
		}
	}
	// The relative error achieved should usually satisfy the target.
	rel := math.Abs(res.Final.Value-float64(want)) / float64(want)
	if rel > 0.25 {
		t.Errorf("final relative error %.3f way above target", rel)
	}
}

func TestSequentialCountValidation(t *testing.T) {
	r, s, e, _ := seqFixtures(t)
	rng := testRand(44)
	syn := NewSynopsis()
	_ = syn.AddDrawn(r, 50, rng)
	_ = syn.AddDrawn(s, 50, rng)
	if _, err := seqCount(e, syn, rng, SequentialOptions{}); err == nil {
		t.Error("zero TargetRelErr should fail")
	}
	// Synopsis not drawn from stored relations cannot extend.
	ext := NewSynopsis()
	_ = ext.AddSample(r.Subset("R", []int{0, 1, 2}), r.Len())
	_ = ext.AddSample(s.Subset("S", []int{0, 1, 2}), s.Len())
	if _, err := seqCount(e, ext, rng, SequentialOptions{TargetRelErr: 0.05}); err == nil {
		t.Error("non-extensible synopsis should fail")
	}
}

func TestSequentialMaxFraction(t *testing.T) {
	r, s, e, _ := seqFixtures(t)
	rng := testRand(45)
	syn := NewSynopsis()
	_ = syn.AddDrawn(r, 20, rng)
	_ = syn.AddDrawn(s, 20, rng)
	res, err := seqCount(e, syn, rng, SequentialOptions{
		TargetRelErr: 0.0001, // unreachable: forces the cap
		PilotSize:    50,
		MaxFraction:  0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleSizes["R"] > r.Len()/20+1 {
		t.Errorf("MaxFraction not respected: %v", res.SampleSizes)
	}
	if res.TargetMet {
		t.Error("impossible target reported met")
	}
}

func TestDeadlineCount(t *testing.T) {
	r, s, e, want := seqFixtures(t)
	rng := testRand(47)
	syn := NewSynopsis()
	_ = syn.AddDrawn(r, 10, rng)
	_ = syn.AddDrawn(s, 10, rng)
	est, history, err := deadlineCount(e, syn, rng, DeadlineOptions{
		Budget:      50 * time.Millisecond,
		InitialSize: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(history) == 0 {
		t.Fatal("no estimation rounds")
	}
	// Sample sizes are non-decreasing across rounds.
	for i := 1; i < len(history); i++ {
		if history[i].SampleSizes["R"] < history[i-1].SampleSizes["R"] {
			t.Errorf("round %d shrank the sample: %v -> %v", i, history[i-1].SampleSizes, history[i].SampleSizes)
		}
	}
	if est.Value <= 0 {
		t.Errorf("final estimate %v", est.Value)
	}
	rel := math.Abs(est.Value-float64(want)) / float64(want)
	if rel > 0.5 {
		t.Errorf("deadline estimate relative error %.3f", rel)
	}
	// Validation.
	if _, _, err := deadlineCount(e, syn, rng, DeadlineOptions{}); err == nil {
		t.Error("zero budget should fail")
	}
	// A request on a clone codes its keys in the clone's own domain, on
	// aliases of the shared views: the synopsis it was cloned from keeps
	// its Bytes.
	shared := syn.Bytes()
	if _, _, err := DeadlineCountContext(context.Background(), e, syn.Clone(), DeadlineOptions{
		Budget: 50 * time.Millisecond, InitialSize: 50, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	if b := syn.Bytes(); b != shared {
		t.Errorf("the request on a clone left %d bytes of code vectors on the synopsis it cloned", b-shared)
	}
}

// TestNextRoundFits pins the deadline loop's stop rule: another round
// starts only when the last round's time × growth fits in the time left,
// so no round starts that is predicted to overrun the budget.
func TestNextRoundFits(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		last, remaining time.Duration
		growth          float64
		want            bool
	}{
		{2 * ms, 5 * ms, 2, true},
		{2 * ms, 4 * ms, 2, false}, // predicted to end exactly at the deadline
		{3 * ms, 5 * ms, 2, false},
		{3 * ms, 5 * ms, 1.5, true},
		{0, 1, 2, true},
		{0, 0, 2, false},            // the budget is spent
		{1 * ms, -1 * ms, 2, false}, // the deadline has passed
		{1 * ms, time.Hour, 1e300, false},
	}
	for _, c := range cases {
		if got := nextRoundFits(c.last, c.remaining, c.growth); got != c.want {
			t.Errorf("nextRoundFits(%v, %v, %g) = %v, want %v", c.last, c.remaining, c.growth, got, c.want)
		}
	}
}

func TestDeadlineCountExhaustsSmallRelations(t *testing.T) {
	// With a tiny relation and a long budget the loop must terminate by
	// exhaustion (census) rather than spinning.
	r := intRelation("R", []string{"a"}, [][]int64{{1}, {2}, {3}, {1}})
	e := algebra.Must(algebra.Select(algebra.BaseOf(r), algebra.Cmp{Col: "a", Op: algebra.EQ, Val: relation.Int(1)}))
	rng := testRand(48)
	syn := NewSynopsis()
	_ = syn.AddDrawn(r, 2, rng)
	est, history, err := deadlineCount(e, syn, rng, DeadlineOptions{
		Budget:      time.Hour,
		InitialSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 2 {
		t.Errorf("census estimate %v, want exactly 2", est.Value)
	}
	last := history[len(history)-1]
	if last.SampleSizes["R"] != r.Len() {
		t.Errorf("final sample %v, want census", last.SampleSizes)
	}
}
