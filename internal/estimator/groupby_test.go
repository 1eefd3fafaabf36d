package estimator

import (
	"testing"

	"relest/internal/algebra"
	"relest/internal/relation"
	"relest/internal/stats"
)

func TestGroupCountCensusIsExact(t *testing.T) {
	r := intRelation("R", []string{"g", "id"}, [][]int64{
		{1, 0}, {1, 1}, {1, 2}, {2, 3}, {2, 4}, {3, 5},
	})
	syn := NewSynopsis()
	if err := syn.AddSample(r.Clone("R"), r.Len()); err != nil {
		t.Fatal(err)
	}
	groups, err := groupsOf(algebra.BaseOf(r), "g", syn)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]float64{1: 3, 2: 2, 3: 1}
	if len(groups) != 3 {
		t.Fatalf("groups %v", groups)
	}
	for _, g := range groups {
		if got := want[g.Value.Int64()]; got != g.Count {
			t.Errorf("group %v: %v, want %v", g.Value, g.Count, got)
		}
	}
	// Sorted by descending count.
	if groups[0].Value.Int64() != 1 || groups[2].Value.Int64() != 3 {
		t.Errorf("ordering %v", groups)
	}
}

// TestGroupCountUnbiasedPerGroupExhaustive: every group's estimate,
// averaged over all samples, equals its exact count (groups missing from a
// sample contribute 0 to the average — the estimator is unbiased for the
// per-group count including the coverage zeros).
func TestGroupCountUnbiasedPerGroupExhaustive(t *testing.T) {
	r := intRelation("R", []string{"g", "id"}, [][]int64{
		{1, 0}, {1, 1}, {2, 2}, {2, 3}, {3, 4},
	})
	e := algebra.BaseOf(r)
	const n = 3
	sums := map[int64]*stats.Welford{1: {}, 2: {}, 3: {}}
	subsets(r.Len(), n, func(rows []int) {
		syn := synopsisFor(t, []*relation.Relation{r}, [][]int{rows})
		groups, err := groupsOf(e, "g", syn)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]float64{}
		for _, g := range groups {
			seen[g.Value.Int64()] = g.Count
		}
		for v, w := range sums {
			w.Add(seen[v]) // zero when the group was missed
		}
	})
	want := map[int64]float64{1: 2, 2: 2, 3: 1}
	for v, w := range sums {
		if !almostEqual(w.Mean(), want[v], 1e-9) {
			t.Errorf("group %d: E[estimate] = %v, want %v", v, w.Mean(), want[v])
		}
	}
}

func TestGroupCountOverJoin(t *testing.T) {
	r, s := biggishFixtures(t)
	syn := NewSynopsis()
	rng := testRand(21)
	if err := syn.AddDrawn(r, 100, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(s, 100, rng); err != nil {
		t.Fatal(err)
	}
	e := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(s),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
	groups, err := groupsOf(e, "a", syn)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) == 0 {
		t.Fatal("no groups")
	}
	total := 0.0
	for _, g := range groups {
		if g.Count < 0 {
			t.Errorf("negative group estimate %v", g)
		}
		total += g.Count
	}
	// The group totals must add to the whole-expression estimate.
	whole, err := countOf(e, syn, Options{Variance: VarNone})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(total, whole.Value, 1e-9) {
		t.Errorf("group totals %v != COUNT estimate %v", total, whole.Value)
	}
}

func TestGroupCountErrors(t *testing.T) {
	r := intRelation("R", []string{"g"}, [][]int64{{1}})
	syn := NewSynopsis()
	if err := syn.AddDrawn(r, 1, testRand(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := groupsOf(algebra.BaseOf(r), "zz", syn); err == nil {
		t.Error("unknown column should fail")
	}
	pr := algebra.Must(algebra.Project(algebra.BaseOf(r), "g"))
	if _, err := groupsOf(pr, "g", syn); err == nil {
		t.Error("π should be rejected")
	}
}
