package estimator

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"relest/internal/algebra"
	"relest/internal/relation"
	"relest/internal/stats"
)

func TestIncrementalTrackAndCounts(t *testing.T) {
	inc := NewIncrementalWithOptions(IncrementalOptions{Capacity: 10, RNG: testRand(1)})
	schema := intSchema("a", "b")
	if err := inc.Track("R", schema); err != nil {
		t.Fatal(err)
	}
	if err := inc.Track("R", schema); err == nil {
		t.Error("duplicate Track should fail")
	}
	if err := inc.Track("A", schema); err != nil {
		t.Fatal(err)
	}
	if names := inc.Names(); len(names) != 2 || names[0] != "A" || names[1] != "R" {
		t.Errorf("Names() = %v, want [A R]", names)
	}
	for i := 0; i < 25; i++ {
		if err := inc.Insert("R", relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := inc.PopulationSize("R"); n != 25 {
		t.Errorf("population %d", n)
	}
	if n, _ := inc.SampleSize("R"); n != 10 {
		t.Errorf("sample %d", n)
	}
	if err := inc.Delete("R", relation.Tuple{relation.Int(3), relation.Int(30)}); err != nil {
		t.Fatal(err)
	}
	if n, _ := inc.PopulationSize("R"); n != 24 {
		t.Errorf("population after delete %d", n)
	}
	// Errors.
	if err := inc.Insert("X", relation.Tuple{relation.Int(1)}); err == nil {
		t.Error("untracked insert should fail")
	}
	if err := inc.Delete("X", relation.Tuple{relation.Int(1)}); err == nil {
		t.Error("untracked delete should fail")
	}
	if err := inc.Insert("R", relation.Tuple{relation.Int(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, ok := inc.PopulationSize("X"); ok {
		t.Error("untracked PopulationSize should report !ok")
	}
	if _, ok := inc.SampleSize("X"); ok {
		t.Error("untracked SampleSize should report !ok")
	}
}

func TestIncrementalSnapshotEstimation(t *testing.T) {
	// Stream two relations, snapshot, and estimate a join; compare with
	// the exact count over the surviving population.
	rng := testRand(7)
	inc := NewIncrementalWithOptions(IncrementalOptions{Capacity: 400, RNG: rng})
	schema := intSchema("a", "id")
	if err := inc.Track("R", schema); err != nil {
		t.Fatal(err)
	}
	if err := inc.Track("S", schema); err != nil {
		t.Fatal(err)
	}
	fullR := relation.New("R", schema)
	fullS := relation.New("S", schema)
	for i := 0; i < 3000; i++ {
		tr := relation.Tuple{relation.Int(int64(rng.Intn(50))), relation.Int(int64(i))}
		ts := relation.Tuple{relation.Int(int64(rng.Intn(50))), relation.Int(int64(i))}
		_ = inc.Insert("R", tr)
		_ = inc.Insert("S", ts)
		fullR.MustAppend(tr)
		fullS.MustAppend(ts)
	}
	e := algebra.Must(algebra.Join(
		algebra.Base("R", schema), algebra.Base("S", schema),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
	want, err := algebra.Count(e, algebra.MapCatalog{"R": fullR, "S": fullS})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := syn.PopulationSize("R"); n != 3000 {
		t.Errorf("snapshot population %d", n)
	}
	est, err := countOf(e, syn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(est.Value-float64(want)) / float64(want)
	if rel > 0.30 {
		t.Errorf("incremental estimate rel error %.3f (est %v, want %d)", rel, est.Value, want)
	}
}

// TestIncrementalUnbiasedOverStream checks the end-to-end statistical
// property: across many independently seeded streams with deletions, the
// mean of the snapshot-based estimates matches the exact count over the
// surviving population.
func TestIncrementalUnbiasedOverStream(t *testing.T) {
	schema := intSchema("a", "id")
	e := algebra.Must(algebra.Select(algebra.Base("R", schema),
		algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(10)}))

	// Fixed stream of value-unique tuples (the incremental synopsis
	// contract): insert (i%30, i) for i<300, delete the first 60 inserted,
	// insert 60 more. Survivors are deterministic.
	build := func(seed int64) (float64, float64) {
		rng := testRand(seed)
		inc := NewIncrementalWithOptions(IncrementalOptions{Capacity: 40, RNG: rng})
		if err := inc.Track("R", schema); err != nil {
			t.Fatal(err)
		}
		full := relation.New("R", schema)
		var inserted []relation.Tuple
		for i := 0; i < 300; i++ {
			tp := relation.Tuple{relation.Int(int64(i % 30)), relation.Int(int64(i))}
			_ = inc.Insert("R", tp)
			inserted = append(inserted, tp)
		}
		for i := 0; i < 60; i++ {
			_ = inc.Delete("R", inserted[i])
		}
		for i := 0; i < 60; i++ {
			tp := relation.Tuple{relation.Int(int64(i % 15)), relation.Int(int64(1000 + i))}
			_ = inc.Insert("R", tp)
			inserted = append(inserted, tp)
		}
		for _, tp := range inserted[60:] {
			full.MustAppend(tp)
		}
		want, err := algebra.Count(e, algebra.MapCatalog{"R": full})
		if err != nil {
			t.Fatal(err)
		}
		syn, err := inc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		est, err := countOf(e, syn, Options{Variance: VarNone})
		if err != nil {
			t.Fatal(err)
		}
		return est.Value, float64(want)
	}
	var mean stats.Welford
	var want float64
	for seed := int64(0); seed < 300; seed++ {
		got, w := build(seed)
		want = w
		mean.Add(got)
	}
	// Mean over 300 streams should be within ~4 standard errors of truth.
	se := mean.StdDev() / math.Sqrt(float64(mean.N()))
	if math.Abs(mean.Mean()-want) > 5*se+1e-9 {
		t.Errorf("E[estimate] = %v ± %v, want %v", mean.Mean(), se, want)
	}
}

// TestIncrementalRefusesContractBreaks replays a stream that breaks the
// duplicate-free contract: three inserts into a capacity-4 sample, then
// deletes of two tuples never inserted. Accepted, those deletes would
// leave 3 sampled rows for a population of 1, and every later snapshot
// would fail. Each is refused with ErrRefusedEvent and changes
// nothing, as is an insert of a tuple the sample holds; snapshots keep
// working, and the synopsis draws exactly as one that never saw the
// refused events.
func TestIncrementalRefusesContractBreaks(t *testing.T) {
	schema := intSchema("a")
	tuple := func(v int64) relation.Tuple { return relation.Tuple{relation.Int(v)} }
	replay := func(events []string, vals []int64) (*Incremental, []error) {
		inc := NewIncrementalWithOptions(IncrementalOptions{Capacity: 4, RNG: testRand(9)})
		if err := inc.Track("R", schema); err != nil {
			t.Fatal(err)
		}
		errs := make([]error, len(events))
		for i, op := range events {
			if op == "insert" {
				errs[i] = inc.Insert("R", tuple(vals[i]))
			} else {
				errs[i] = inc.Delete("R", tuple(vals[i]))
			}
		}
		return inc, errs
	}
	got, errs := replay(
		[]string{"insert", "insert", "insert", "delete", "delete", "insert", "insert", "insert", "insert"},
		[]int64{0, 1, 2, 100, 101, 1, 3, 4, 5})
	for i, err := range errs {
		if wantRefused := i == 3 || i == 4 || i == 5; errors.Is(err, ErrRefusedEvent) != wantRefused || (err != nil && !wantRefused) {
			t.Errorf("event %d: error %v, want refused %v", i, err, wantRefused)
		}
	}
	want, _ := replay([]string{"insert", "insert", "insert", "insert", "insert", "insert"}, []int64{0, 1, 2, 3, 4, 5})
	for _, inc := range []*Incremental{got, want} {
		if _, err := inc.Snapshot(); err != nil {
			t.Fatalf("snapshot after the refused events: %v", err)
		}
	}
	gn, _ := got.PopulationSize("R")
	wn, _ := want.PopulationSize("R")
	gs, _ := got.Snapshot()
	ws, _ := want.Snapshot()
	if gn != 6 || wn != 6 || fmt.Sprint(sampleCells(gs, "R")) != fmt.Sprint(sampleCells(ws, "R")) {
		t.Errorf("population %d, sample %v; a stream without the refused events has %d, %v",
			gn, sampleCells(gs, "R"), wn, sampleCells(ws, "R"))
	}
}

// TestIncrementalReplayAppliesContractBreaks pins that ReplayInsert and
// ReplayDelete apply the events Insert and Delete refuse, as a stream
// without the checks did: a duplicate insert joins the sample, and an
// absent delete from a fully sampled relation leaves the sample larger
// than the population.
func TestIncrementalReplayAppliesContractBreaks(t *testing.T) {
	inc := NewIncrementalWithOptions(IncrementalOptions{Capacity: 4, RNG: testRand(9)})
	if err := inc.Track("R", intSchema("a")); err != nil {
		t.Fatal(err)
	}
	tuple := func(v int64) relation.Tuple { return relation.Tuple{relation.Int(v)} }
	for _, v := range []int64{0, 1, 0} {
		if err := inc.ReplayInsert("R", tuple(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.ReplayDelete("R", tuple(100)); err != nil {
		t.Fatal(err)
	}
	n, _ := inc.PopulationSize("R")
	s, _ := inc.SampleSize("R")
	if n != 2 || s != 3 {
		t.Errorf("population %d, sample %d after the replayed events, want 2 and 3", n, s)
	}
	if !errors.Is(inc.Insert("R", tuple(1)), ErrRefusedEvent) {
		t.Error("a live insert of a sampled tuple was not refused after a replay")
	}
	for range 2 {
		if err := inc.ReplayDelete("R", tuple(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.ReplayDelete("R", tuple(1)); err == nil {
		t.Error("a replayed delete from an empty relation succeeded")
	}
}
