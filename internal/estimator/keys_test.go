package estimator

import (
	"testing"

	"relest/internal/algebra"
)

// TestCallDomainsLeaveViewsBare pins who keeps a code vector. An estimate
// through the synopsis codes its join keys in the synopsis's domain, and
// the sample views memoize those codes. Prepare, a NewPlanCache and Eval
// over the same views code their keys in a domain that dies with the
// call, so they must leave no code vector on the views: the synopsis's
// Bytes (its views' memos and its domain) is unchanged after them.
func TestCallDomainsLeaveViewsBare(t *testing.T) {
	syn := momentsFixture(t, "tuple")
	base := func(name string, cols ...string) *algebra.Expr { return algebra.Base(name, intSchema(cols...)) }
	join := algebra.Must(algebra.Join(base("R", "a", "b"), base("S", "a", "c"), []algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
	both := algebra.Must(algebra.Intersect(base("R", "a", "b"), base("T", "a", "b")))

	fresh := syn.Bytes()
	for _, e := range []*algebra.Expr{join, both} {
		if _, err := countOf(e, syn, Options{Variance: VarAnalytic}); err != nil {
			t.Fatal(err)
		}
	}
	shared := syn.Bytes()
	if shared <= fresh {
		t.Fatalf("estimates through the synopsis memoized nothing: Bytes %d → %d", fresh, shared)
	}

	for _, e := range []*algebra.Expr{join, both} {
		poly, err := algebra.Normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		cache := algebra.NewPlanCache()
		for i := range poly.Terms {
			tm := &poly.Terms[i]
			inst, err := algebra.BindInstances(tm, syn)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := algebra.Prepare(tm, inst)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := cache.Prepare(tm, inst)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := pt.Count(), cached.Count(); a != b {
				t.Fatalf("Prepare counts %v, a NewPlanCache plan %v", a, b)
			}
			cached.Marginals()
		}
		if _, err := algebra.Count(e, syn); err != nil {
			t.Fatal(err)
		}
		res, err := algebra.Eval(e, syn)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() == 0 {
			t.Fatalf("%v: Eval over the sample views is empty; the fixture joins nothing", e)
		}
	}
	if b := syn.Bytes(); b != shared {
		t.Errorf("Prepare, NewPlanCache and Eval left %d bytes of code vectors on the synopsis's views", b-shared)
	}
}
