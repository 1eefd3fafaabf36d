package estimator

import (
	"context"
	"testing"
	"time"

	"relest/internal/algebra"
	"relest/internal/obs"
)

// TestPairTallyCounter pins which keys the pair tallies read: every round
// of a deadline request over a single-column equi-join counts its join by
// key code, and an ∩ term, whose occurrences are equated on every column,
// probes its composite key through a hash index. The request's clone
// codes in its own domain and leaves no code vector on the views it
// shares with the synopsis it was cloned from.
func TestPairTallyCounter(t *testing.T) {
	syn := momentsFixture(t, "tuple")
	base := func(name string, cols ...string) *algebra.Expr { return algebra.Base(name, intSchema(cols...)) }
	join := algebra.Must(algebra.Join(base("R", "a", "b"), base("S", "a", "c"), []algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
	tally := func(rec *obs.Collector) (coded, hashed float64) {
		m := rec.Metrics()
		return m.Counter(mPairTallyCoded).Value(), m.Counter(mPairTallyHashed).Value()
	}

	rec := obs.NewCollector()
	shared := syn.Bytes()
	_, steps, err := DeadlineCountContext(context.Background(), join, syn.Clone(), DeadlineOptions{
		Budget: time.Minute, Estimate: Options{Variance: VarAnalytic, Recorder: rec}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds := rec.Metrics().Counter(mDeadlineRounds).Value()
	if coded, hashed := tally(rec); len(steps) < 3 || coded != rounds || hashed != 0 {
		t.Errorf("%d deadline rounds (%v counted): %v coded and %v hashed tallies, want one coded tally a round", len(steps), rounds, coded, hashed)
	}
	if b := syn.Bytes(); b != shared {
		t.Errorf("the request on a clone left %d bytes of code vectors on the synopsis it cloned", b-shared)
	}

	rec = obs.NewCollector()
	both := algebra.Must(algebra.Intersect(base("R", "a", "b"), base("T", "a", "b")))
	if _, err := countOf(both, syn, Options{Variance: VarAnalytic, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	if coded, hashed := tally(rec); coded != 0 || hashed != 1 {
		t.Errorf("R ∩ T: %v coded and %v hashed tallies, want one hashed", coded, hashed)
	}
}
