package estimator

import (
	"context"
	"math"
	"reflect"
	"testing"

	"relest/internal/algebra"
	"relest/internal/relation"
	"relest/internal/sketch"
)

func TestParseTierPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want TierPolicy
		ok   bool
	}{
		{"", TierDefault, true},
		{"default", TierDefault, true},
		{"auto", TierAuto, true},
		{"sketch", TierSketchOnly, true},
		{"sample", TierSampleOnly, true},
		{"AUTO", TierDefault, false},
		{"hybrid", TierDefault, false},
	}
	for _, c := range cases {
		got, err := ParseTierPolicy(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseTierPolicy(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	// String must round-trip through Parse for every named policy.
	for _, p := range []TierPolicy{TierDefault, TierAuto, TierSketchOnly, TierSampleOnly} {
		back, err := ParseTierPolicy(p.String())
		if err != nil || back != p {
			t.Errorf("ParseTierPolicy(%v.String()) = %v, %v", p, back, err)
		}
	}
	if TierPolicy(99).String() == "" {
		t.Error("unknown policy must still render")
	}
}

// tierTestRelations builds two small joinable relations.
func tierTestRelations(t *testing.T) (*relation.Relation, *relation.Relation) {
	t.Helper()
	r := relation.New("R", intSchema("a", "b"))
	s := relation.New("S", intSchema("a", "c"))
	for i := 0; i < 400; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i % 40)), relation.Int(int64(i))})
		s.MustAppend(relation.Tuple{relation.Int(int64(i % 25)), relation.Int(int64(i))})
	}
	return r, s
}

// TestSketchShapeTable is the tier-decision table: which normalized term
// shapes the sketch tier answers and which escalate.
func TestSketchShapeTable(t *testing.T) {
	r, s := tierTestRelations(t)
	equi := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(s),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
	cases := []struct {
		name string
		expr *algebra.Expr
		want []termShape
	}{
		{"bare cardinality", algebra.BaseOf(r), []termShape{shapeExactCard}},
		{"equi-join", equi, []termShape{shapeSketchEq}},
		{"selection",
			algebra.Must(algebra.Select(algebra.BaseOf(r),
				algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(10)})),
			[]termShape{shapeEscalate}},
		{"theta residual on equi-join",
			algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(s),
				[]algebra.On{{Left: "a", Right: "a"}},
				algebra.ColCmp{A: "b", B: "c", Op: algebra.LT}, "S_")),
			[]termShape{shapeEscalate}},
		{"product", algebra.Must(algebra.Product(algebra.BaseOf(r), algebra.BaseOf(s), "S_")),
			[]termShape{shapeEscalate}},
		{"selected join",
			algebra.Must(algebra.Select(equi,
				algebra.Cmp{Col: "b", Op: algebra.GT, Val: relation.Int(100)})),
			[]termShape{shapeEscalate}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			poly, err := algebra.Normalize(c.expr)
			if err != nil {
				t.Fatal(err)
			}
			if len(poly.Terms) != len(c.want) {
				t.Fatalf("%d terms, want %d", len(poly.Terms), len(c.want))
			}
			for i := range poly.Terms {
				if got := sketchShape(&poly.Terms[i]); got != c.want[i] {
					t.Errorf("term %d shape %v, want %v", i, got, c.want[i])
				}
			}
		})
	}

	// Set operations expand into multi-occurrence intersection terms: the
	// cardinality terms are sketchable, the intersection term is not.
	rr := relation.New("R2", intSchema("a", "b"))
	for i := 0; i < 100; i++ {
		rr.MustAppend(relation.Tuple{relation.Int(int64(i % 10)), relation.Int(int64(i))})
	}
	union := algebra.Must(algebra.Union(algebra.BaseOf(r), algebra.BaseOf(rr)))
	poly, err := algebra.Normalize(union)
	if err != nil {
		t.Fatal(err)
	}
	var exact, escalate int
	for i := range poly.Terms {
		switch sketchShape(&poly.Terms[i]) {
		case shapeExactCard:
			exact++
		case shapeEscalate:
			escalate++
		default:
			t.Errorf("unexpected sketch-eq term in a union polynomial")
		}
	}
	if exact < 2 || escalate < 1 {
		t.Errorf("union shapes: %d exact, %d escalated; want ≥2 and ≥1", exact, escalate)
	}
}

func TestMeetsPrecision(t *testing.T) {
	cases := []struct {
		name string
		est  sketch.Estimate
		want bool
	}{
		{"exact (zero variance)", sketch.Estimate{Value: 400}, true},
		{"tight", sketch.Estimate{Value: 1000, Variance: 100}, true},      // 2·10/1000 = 2%
		{"loose", sketch.Estimate{Value: 1000, Variance: 1000000}, false}, // 2·1000/1000 = 200%
		{"non-positive value", sketch.Estimate{Value: -5, Variance: 1}, false},
		{"zero value", sketch.Estimate{Value: 0, Variance: 1}, false},
	}
	for _, c := range cases {
		if got := meetsPrecision(c.est, 2.0, 0.1); got != c.want {
			t.Errorf("%s: meetsPrecision = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestEnsureSketchesLifecycle(t *testing.T) {
	r, s := tierTestRelations(t)
	rng := testRand(3)
	syn := NewSynopsis()
	if err := syn.AddDrawn(r, 50, rng); err != nil {
		t.Fatal(err)
	}
	// AddSample registers a bare sample with no retained base: no sketch.
	sample := relation.New("S", s.Schema())
	for i := 0; i < 50; i++ {
		sample.MustAppend(relation.Tuple{s.Value(i, 0), s.Value(i, 1)})
	}
	if err := syn.AddSample(sample, s.Len()); err != nil {
		t.Fatal(err)
	}
	if syn.HasSketches("R") || syn.HasSketches("S") {
		t.Fatal("sketches exist before EnsureSketches")
	}
	syn.EnsureSketches()
	if !syn.HasSketches("R") {
		t.Error("drawn relation must gain a sketch tier")
	}
	if syn.HasSketches("S") {
		t.Error("AddSample relation has no base; it must not gain sketches")
	}
	if got := syn.SketchedRelations(); len(got) != 1 || got[0] != "R" {
		t.Errorf("SketchedRelations = %v", got)
	}
	if syn.SketchBytes() <= 0 {
		t.Error("SketchBytes must be positive once a tier exists")
	}
	// Idempotence: a second call must keep the same sketch objects.
	before := syn.relSketch("R")
	syn.EnsureSketches()
	if syn.relSketch("R") != before {
		t.Error("EnsureSketches rebuilt an existing tier")
	}
	// Clone shares the immutable sketch tier by reference.
	clone := syn.Clone()
	if clone.relSketch("R") != before {
		t.Error("Clone must share built sketches")
	}
	// The KMV summary sees the full base, not the sample.
	d, ok := syn.SketchDistinct("R", "a")
	if !ok || d != 40 {
		t.Errorf("SketchDistinct(R, a) = %v, %v; want 40 (exact below k)", d, ok)
	}
	if _, ok := syn.SketchDistinct("R", "zzz"); ok {
		t.Error("unknown column must report !ok")
	}
	if _, ok := syn.SketchDistinct("S", "a"); ok {
		t.Error("unsketched relation must report !ok")
	}
}

// TestIncrementalSketchMatchesRebuild pins the linearity contract: the
// stream-maintained AGMS sketches after arbitrary inserts and deletes are
// atom-for-atom identical to sketches rebuilt from the surviving tuples.
func TestIncrementalSketchMatchesRebuild(t *testing.T) {
	schema := intSchema("a", "b")
	inc := NewIncrementalWithOptions(IncrementalOptions{Capacity: 64, RNG: testRand(11)})
	if err := inc.Track("R", schema); err != nil {
		t.Fatal(err)
	}
	rng := testRand(12)
	var live []relation.Tuple
	for i := 0; i < 2000; i++ {
		if len(live) > 0 && rng.Float64() < 0.3 {
			k := rng.Intn(len(live))
			if err := inc.Delete("R", live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
			continue
		}
		tup := relation.Tuple{relation.Int(int64(rng.Intn(100))), relation.Int(int64(i))}
		if err := inc.Insert("R", tup); err != nil {
			t.Fatal(err)
		}
		live = append(live, tup)
	}
	syn, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got := syn.relSketch("R")
	if got == nil {
		t.Fatal("snapshot carries no sketch tier")
	}
	survivors := relation.New("R", schema)
	for _, tup := range live {
		survivors.MustAppend(tup)
	}
	want := buildRelSketches(survivors)
	for c := range want.cols {
		if !reflect.DeepEqual(got.cols[c], want.cols[c]) {
			t.Errorf("column %d: stream-maintained sketch differs from rebuild", c)
		}
	}
}

// TestTieredCountPureSketch covers the three planner outcomes directly.
func TestTieredCountOutcomes(t *testing.T) {
	r, s := tierTestRelations(t)
	rng := testRand(5)
	syn := NewSynopsis()
	if err := syn.AddDrawn(r, 80, rng); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(s, 80, rng); err != nil {
		t.Fatal(err)
	}
	syn.EnsureSketches()
	ctx := context.Background()
	tieredCount := func(e *algebra.Expr, opts Options, policy TierPolicy) (Estimate, TierReport, error) {
		poly, err := algebra.Normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		return tieredCount(ctx, poly, syn, opts, policy, 0)
	}

	// Pure sketch: a bare cardinality is answered exactly.
	est, rep, err := tieredCount(algebra.BaseOf(r), Options{}, TierAuto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Answered != TierAnsweredSketch || rep.SketchTerms != 1 || rep.SampleTerms != 0 {
		t.Errorf("cardinality report %+v", rep)
	}
	if est.Value != 400 || est.VarianceMethod != VarSketch || est.StdErr != 0 {
		t.Errorf("cardinality estimate %+v", est)
	}

	// Pure sample: a selection escalates wholesale.
	sel := algebra.Must(algebra.Select(algebra.BaseOf(r),
		algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(10)}))
	est, rep, err = tieredCount(sel, Options{}, TierAuto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Answered != TierAnsweredSample || rep.SketchTerms != 0 || rep.SampleTerms != 1 {
		t.Errorf("selection report %+v", rep)
	}
	want, err := countCtx(ctx, sel, syn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != want.Value {
		t.Errorf("escalated value %v != sample-tier value %v", est.Value, want.Value)
	}

	// VarNone passthrough on the sketch path: no variance fields.
	est, _, err = tieredCount(algebra.BaseOf(r), Options{Variance: VarNone}, TierAuto)
	if err != nil {
		t.Fatal(err)
	}
	if est.VarianceMethod != VarNone || !math.IsNaN(est.Variance) {
		t.Errorf("VarNone sketch estimate %+v", est)
	}

	// SketchOnly refusal names the reason.
	if _, _, err := tieredCount(sel, Options{}, TierSketchOnly); err == nil {
		t.Error("SketchOnly must refuse a selection")
	}
}
