package relest_test

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"relest"
	"relest/internal/planner"
)

// TestFacadeEndToEnd drives the public API the way a downstream user would:
// generate data, build expressions, draw a synopsis, estimate, and compare
// against exact evaluation.
func TestFacadeEndToEnd(t *testing.T) {
	rng := relest.Seeded(1)
	emp, dept := relest.Company(rng, 20_000, 25)
	cat := relest.MapCatalog{"employees": emp, "departments": dept}

	// How many employees older than 50 work in departments with budget
	// over 500k?
	e := relest.Must(relest.Join(
		relest.Must(relest.Select(relest.BaseOf(emp),
			relest.Cmp{Col: "age", Op: relest.GT, Val: relest.Int(50)})),
		relest.Must(relest.Select(relest.BaseOf(dept),
			relest.Cmp{Col: "budget", Op: relest.GT, Val: relest.Int(500_000)})),
		[]relest.On{{Left: "dept_id", Right: "dept_id"}}, nil, "d"))

	actual, err := relest.ExactCount(e, cat)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := relest.Draw([]*relest.Relation{emp, dept}, 0.10, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	est, err := count(e, syn, relest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if actual > 0 {
		rel := math.Abs(est.Value-float64(actual)) / float64(actual)
		if rel > 0.5 {
			t.Errorf("estimate %v vs actual %d (rel err %.2f)", est.Value, actual, rel)
		}
	}
	if est.StdErr < 0 || est.Lo > est.Hi {
		t.Errorf("malformed estimate %+v", est)
	}
}

func TestFacadeCSVRoundTrip(t *testing.T) {
	rng := relest.Seeded(2)
	r := relest.ZipfRelation(rng, "R", 1.0, 100, 500, relest.MapRandom)
	var buf bytes.Buffer
	if err := relest.ExportCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := relest.ImportCSV("R", bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != r.Len() {
		t.Fatalf("round trip %d != %d", got.Len(), r.Len())
	}
	if got.Schema().Column(0).Kind != relest.KindInt {
		t.Errorf("inferred schema %s", got.Schema())
	}
}

func TestFacadeDistinct(t *testing.T) {
	rng := relest.Seeded(3)
	r := relest.ZipfRelation(rng, "R", 0.5, 200, 5_000, relest.MapRandom)
	syn := relest.NewSynopsis()
	if err := syn.AddDrawn(r, 1_000, rng); err != nil {
		t.Fatal(err)
	}
	d, err := relest.Distinct(syn, "R", []string{"a"}, relest.DistinctJackknife)
	if err != nil {
		t.Fatal(err)
	}
	if d < 100 || d > 400 {
		t.Errorf("distinct estimate %v far from 200", d)
	}
}

func TestFacadeSequentialAndDeadline(t *testing.T) {
	rng := relest.Seeded(4)
	r1, r2 := relest.JoinPair(rng, relest.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: 500, N1: 10_000, N2: 10_000,
		Correlation: relest.Independent,
	})
	e := relest.Must(relest.Join(relest.BaseOf(r1), relest.BaseOf(r2),
		[]relest.On{{Left: "a", Right: "a"}}, nil, "R2"))

	syn, err := relest.Draw([]*relest.Relation{r1, r2}, 0.005, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := relest.SequentialCountContext(ctx, e, syn, relest.SequentialOptions{TargetRelErr: 0.1, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Value <= 0 {
		t.Errorf("sequential estimate %v", res.Final.Value)
	}

	syn2, err := relest.Draw([]*relest.Relation{r1, r2}, 0.005, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	opts := relest.Deadline(20 * time.Millisecond)
	opts.RNG = rng
	est, steps, err := relest.DeadlineCountContext(ctx, e, syn2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 || est.Value <= 0 {
		t.Errorf("deadline: %v steps, estimate %v", len(steps), est.Value)
	}
}

func TestFacadeIncremental(t *testing.T) {
	rng := relest.Seeded(5)
	inc := relest.NewIncrementalWithOptions(relest.IncrementalOptions{Capacity: 300, RNG: rng})
	if err := inc.Track("R", relest.JoinSchema()); err != nil {
		t.Fatal(err)
	}
	for _, op := range relest.Stream(rng, relest.StreamSpec{Rel: "R", Ops: 5_000, DeleteFrac: 0.2, Z: 0.5, Domain: 300}) {
		var err error
		if op.Delete {
			err = inc.Delete(op.Rel, op.Tuple)
		} else {
			err = inc.Insert(op.Rel, op.Tuple)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	syn, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	e := relest.Must(relest.Select(relest.Base("R", relest.JoinSchema()),
		relest.Cmp{Col: "a", Op: relest.LT, Val: relest.Int(30)}))
	est, err := count(e, syn, relest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Value < 0 {
		t.Errorf("estimate %v", est.Value)
	}
}

func TestFacadeSetOpsAndExactEval(t *testing.T) {
	rng := relest.Seeded(6)
	r1 := relest.ZipfRelation(rng, "R1", 0, 50, 400, relest.MapRandom)
	r2 := relest.ZipfRelation(rng, "R2", 0, 50, 400, relest.MapRandom)
	u := relest.Must(relest.Union(relest.BaseOf(r1), relest.BaseOf(r2)))
	cat := relest.MapCatalog{"R1": r1, "R2": r2}
	res, err := relest.ExactEval(u, cat)
	if err != nil {
		t.Fatal(err)
	}
	// ids are disjoint across the two generated relations? They are both
	// 0..399, so tuples can coincide only when (a, id) pairs match.
	if res.Len() < 400 || res.Len() > 800 {
		t.Errorf("union size %d", res.Len())
	}
	syn, err := relest.Draw([]*relest.Relation{r1, r2}, 0.25, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	est, err := count(u, syn, relest.Options{Variance: relest.VarSplitSample})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(est.Value-float64(res.Len())) / float64(res.Len())
	if rel > 0.5 {
		t.Errorf("union estimate %v vs %d", est.Value, res.Len())
	}
}

func TestFacadeSumAvg(t *testing.T) {
	rng := relest.Seeded(8)
	emp, _ := relest.Company(rng, 10_000, 10)
	syn := relest.NewSynopsis()
	if err := syn.AddDrawn(emp, 1_000, rng); err != nil {
		t.Fatal(err)
	}
	sel := relest.Must(relest.Select(relest.BaseOf(emp),
		relest.Cmp{Col: "age", Op: relest.GT, Val: relest.Int(40)}))
	ctx := context.Background()
	req := relest.Request{Expr: sel, Col: "salary"}
	sum, err := relest.New(syn, relest.WithTierPolicy(relest.TierSampleOnly)).Sum(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Value <= 0 || sum.Lo > sum.Hi {
		t.Errorf("sum estimate %+v", sum)
	}
	avg, _, err := relest.New(syn, relest.WithOptions(relest.Options{Variance: relest.VarNone}),
		relest.WithTierPolicy(relest.TierSampleOnly)).Avg(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Avg < 30_000 || avg.Avg > 120_000 {
		t.Errorf("avg salary %v implausible", avg.Avg)
	}
}

func TestFacadeDesigns(t *testing.T) {
	rng := relest.Seeded(9)
	r := relest.ZipfRelation(rng, "R", 0.5, 100, 5_000, relest.MapRandom)
	sel := relest.Must(relest.Select(relest.BaseOf(r),
		relest.Cmp{Col: "a", Op: relest.LT, Val: relest.Int(10)}))
	exact, err := relest.ExactCount(sel, relest.MapCatalog{"R": r})
	if err != nil {
		t.Fatal(err)
	}
	// Page design.
	pageSyn := relest.NewSynopsis()
	if err := pageSyn.AddDrawnPages(r, 50, 10, rng); err != nil {
		t.Fatal(err)
	}
	est, err := count(sel, pageSyn, relest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-float64(exact))/float64(exact) > 1.0 {
		t.Errorf("page estimate %v vs %d", est.Value, exact)
	}
	// Stratified design.
	stratSyn := relest.NewSynopsis()
	err = stratSyn.AddDrawnStratified(r, func(row relest.Row) int {
		return int(row.Value(0).Int64()) / 10
	}, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	est, err = count(sel, stratSyn, relest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-float64(exact))/float64(exact) > 0.5 {
		t.Errorf("stratified estimate %v vs %d", est.Value, exact)
	}
}

func TestFacadePlanner(t *testing.T) {
	rng := relest.Seeded(10)
	r1, r2 := relest.JoinPair(rng, relest.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: 100, N1: 2_000, N2: 1_000,
		Correlation: relest.Independent,
	})
	r2c := relest.NewRelation("S", relest.MustSchema(
		relest.Col("a", relest.KindInt), relest.Col("id", relest.KindInt)))
	r2.Each(func(i int, t relest.Tuple) bool {
		_ = r2c.Append(t)
		return true
	})
	cat := relest.MapCatalog{"R1": r1, "S": r2c}
	q := planner.Query{
		Relations: []string{"R1", "S"},
		Schemas:   map[string]*relest.Schema{"R1": r1.Schema(), "S": r2c.Schema()},
		Edges:     []planner.Edge{{A: "R1", B: "S", ACol: "a", BCol: "a"}},
	}
	syn, err := relest.Draw([]*relest.Relation{r1, r2c}, 0.1, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Optimize(q, planner.Sampling{Syn: syn})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Order) != 2 || plan.EstCost <= 0 {
		t.Errorf("plan %+v", plan)
	}
	tc, err := planner.TrueCost(q, plan.Order, cat)
	if err != nil {
		t.Fatal(err)
	}
	if tc <= 0 {
		t.Errorf("true cost %v", tc)
	}
	oracle, err := planner.NewCatalog(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := planner.Optimize(q, oracle); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeProjectRejectedProperly(t *testing.T) {
	rng := relest.Seeded(7)
	r := relest.ZipfRelation(rng, "R", 0, 50, 100, relest.MapRandom)
	syn := relest.NewSynopsis()
	if err := syn.AddDrawn(r, 50, rng); err != nil {
		t.Fatal(err)
	}
	p := relest.Must(relest.Project(relest.BaseOf(r), "a"))
	if _, err := count(p, syn, relest.Options{}); err == nil {
		t.Error("COUNT over π must direct users to Distinct")
	}
}
