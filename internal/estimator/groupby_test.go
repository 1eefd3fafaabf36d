package estimator

import (
	"context"
	"errors"
	"testing"

	"relest/internal/algebra"
	"relest/internal/obs"
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

// TestGroupCountPageDesignAgreesWithCountAndSum: GROUP BY runs on the COUNT
// and SUM estimators' sampling weights, so on a page sample whose last page
// is short (N/n ≠ M/m) the group estimates still add up to the COUNT
// estimate, and Σ g·count to the SUM(g) estimate, for every draw.
func TestGroupCountPageDesignAgreesWithCountAndSum(t *testing.T) {
	rows := make([][]int64, 1050)
	for i := range rows {
		rows[i] = []int64{int64(i % 7), int64(i)}
	}
	r := intRelation("R", []string{"g", "id"}, rows)
	e := algebra.BaseOf(r)
	for seed := int64(1); seed <= 12; seed++ {
		syn := NewSynopsis()
		if err := syn.AddDrawnPages(r, 100, 3, testRand(seed)); err != nil {
			t.Fatal(err)
		}
		groups, err := groupsOf(e, "g", syn)
		if err != nil {
			t.Fatal(err)
		}
		total, weighted := 0.0, 0.0
		for _, g := range groups {
			total += g.Count
			weighted += float64(g.Value.Int64()) * g.Count
		}
		count, err := countOf(e, syn, Options{Variance: VarNone})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := sumOf(e, "g", syn, Options{Variance: VarNone})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(total, count.Value, 1e-9) {
			t.Errorf("seed %d: Σ groups = %v, COUNT = %v", seed, total, count.Value)
		}
		if !almostEqual(weighted, sum.Value, 1e-9) {
			t.Errorf("seed %d: Σ g·count = %v, SUM(g) = %v", seed, weighted, sum.Value)
		}
	}
}

// TestGroupCountPageDesignUnbiasedExhaustive enumerates every page sample
// of a tiny relation with a short last page: each group's estimate must
// average to its exact count.
func TestGroupCountPageDesignUnbiasedExhaustive(t *testing.T) {
	// 7 rows, pageSize 2 → 4 pages, the last short.
	r := intRelation("R", []string{"g", "id"}, [][]int64{
		{1, 0}, {1, 1}, {2, 2}, {3, 3}, {2, 4}, {1, 5}, {3, 6},
	})
	const pageSize, M, m = 2, 4, 2
	sums := map[int64]*stats.Welford{1: {}, 2: {}, 3: {}}
	subsets(M, m, func(pages []int) {
		groups, err := groupsOf(algebra.BaseOf(r), "g", pageSynopsisFor(t, r, pageSize, pages))
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
	want := map[int64]float64{1: 3, 2: 2, 3: 2}
	for v, w := range sums {
		if !almostEqual(w.Mean(), want[v], 1e-9) {
			t.Errorf("group %d: E[estimate] = %v, want %v", v, w.Mean(), want[v])
		}
	}
}

// TestGroupCountHonoursHandle: a group query runs on the handle's engine —
// its recorder sees plan compilations and term spans, its Workers bound the
// term fan-out, and its context is polled.
func TestGroupCountHonoursHandle(t *testing.T) {
	r := intRelation("R", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}, {5}, {6}})
	s := intRelation("S", []string{"a"}, [][]int64{{4}, {5}, {6}, {7}, {8}})
	syn := synopsisFor(t, []*relation.Relation{r, s}, [][]int{{0, 2, 3, 5}, {1, 2, 4}})
	union := algebra.Must(algebra.Union(algebra.BaseOf(r), algebra.BaseOf(s))) // three terms
	for _, workers := range []int{1, 3} {
		rec := obs.NewCollector()
		h := sampleHandle(syn, Options{Workers: workers, Recorder: rec})
		if _, _, err := h.GroupCount(context.Background(), Request{Expr: union, Col: "a"}); err != nil {
			t.Fatal(err)
		}
		m := rec.Metrics()
		if got := m.Counter("relest_plan_built_total").Value(); got < 3 {
			t.Errorf("workers=%d: plan_built_total = %v, want >= 3", workers, got)
		}
		if got := m.Histogram(sTerm+"_seconds", nil).Count(); got != 3 {
			t.Errorf("workers=%d: term spans = %d, want 3", workers, got)
		}
		if got := m.Gauge("relest_pool_workers").Value(); got != float64(workers) {
			t.Errorf("workers=%d: relest_pool_workers = %v", workers, got)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sampleHandle(syn, Options{}).GroupCount(ctx, Request{Expr: union, Col: "a"}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled group query returned %v, want context.Canceled", err)
	}
}
