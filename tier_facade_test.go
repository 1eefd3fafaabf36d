package relest_test

import (
	"context"
	"math"
	"testing"

	"relest"
)

// bitsEqual compares two floats by representation, distinguishing
// 0 from -0 and treating equal NaN payloads as equal — the standard the
// repo's goldens hold every worker count and recorder state to.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func requireSameEstimate(t *testing.T, label string, a, b relest.Estimate) {
	t.Helper()
	if !bitsEqual(a.Value, b.Value) || !bitsEqual(a.Variance, b.Variance) ||
		!bitsEqual(a.StdErr, b.StdErr) || !bitsEqual(a.Lo, b.Lo) || !bitsEqual(a.Hi, b.Hi) ||
		a.VarianceMethod != b.VarianceMethod || a.Terms != b.Terms {
		t.Errorf("%s: estimates differ\n  a=%+v\n  b=%+v", label, a, b)
	}
}

// count estimates COUNT(e) through a sample-only handle, the reference
// every other tier policy is compared against.
func count(e *relest.Expr, syn *relest.Synopsis, opts relest.Options) (relest.Estimate, error) {
	h := relest.New(syn, relest.WithOptions(opts), relest.WithTierPolicy(relest.TierSampleOnly))
	res, err := h.Count(context.Background(), relest.Request{Expr: e})
	return res.Estimate, err
}

// TestFacadeLegacyBitIdentityMatrix pins the handle's tier-policy
// contract across the workers{1,4} × policy matrix: building an auto
// handle (and with it the sketch tier) leaves a sample-only handle's bits
// unchanged, and a TierAuto handle answering a sketch-ineligible shape
// lands on those exact bits too — escalation reuses the sample-tier
// computation unchanged, it does not approximate it. Sum, Avg and
// GroupCount agree bit for bit across worker counts.
func TestFacadeLegacyBitIdentityMatrix(t *testing.T) {
	rng := relest.Seeded(31)
	r1, r2 := relest.JoinPair(rng, relest.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: 300, N1: 6_000, N2: 6_000,
		Correlation: relest.Independent,
	})
	syn, err := relest.Draw([]*relest.Relation{r1, r2}, 0.05, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	// A selection keeps every path on the sample tier even under TierAuto.
	sel := relest.Must(relest.Select(relest.BaseOf(r1),
		relest.Cmp{Col: "a", Op: relest.LT, Val: relest.Int(120)}))
	join := relest.Must(relest.Join(relest.BaseOf(r1), relest.BaseOf(r2),
		[]relest.On{{Left: "a", Right: "a"}}, nil, "R2"))
	ctx := context.Background()
	sampleOnly := func(workers int) *relest.Estimator {
		return relest.New(syn, relest.WithOptions(relest.Options{Workers: workers}), relest.WithTierPolicy(relest.TierSampleOnly))
	}

	var sums []relest.Estimate
	var avgs []relest.AvgResult
	var groups [][]relest.GroupEstimate
	for _, workers := range []int{1, 4} {
		opts := relest.Options{Workers: workers}
		cases := []struct {
			name string
			expr *relest.Expr
		}{{"selection", sel}, {"join", join}}
		before := make([]relest.Result, len(cases))
		for i, c := range cases {
			res, err := sampleOnly(workers).Count(ctx, relest.Request{Expr: c.expr})
			if err != nil {
				t.Fatal(err)
			}
			if res.Tier.Answered != relest.TierAnsweredSample {
				t.Errorf("%s: sample-only handle reported tier %q", c.name, res.Tier.Answered)
			}
			before[i] = res
		}
		// An auto handle builds the synopsis's sketch tier (on the first
		// pass); a sample-only handle built afterwards must reproduce the
		// bits it gave before the sketches existed.
		auto := relest.New(syn, relest.WithOptions(opts))
		for i, c := range cases {
			after, err := sampleOnly(workers).Count(ctx, relest.Request{Expr: c.expr})
			if err != nil {
				t.Fatal(err)
			}
			requireSameEstimate(t, c.name+"/sample-only beside sketches", before[i].Estimate, after.Estimate)
		}

		// TierAuto on a sketch-ineligible shape escalates into the exact
		// same sample-tier computation.
		want, err := count(sel, syn, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := auto.Count(ctx, relest.Request{Expr: sel})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tier.Answered != relest.TierAnsweredSample {
			t.Fatalf("auto policy on a selection answered %q, want sample", res.Tier.Answered)
		}
		requireSameEstimate(t, "escalated selection", want, res.Estimate)

		sum, err := sampleOnly(workers).Sum(ctx, relest.Request{Expr: sel, Col: "id"})
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, sum.Estimate)
		avg, _, err := sampleOnly(workers).Avg(ctx, relest.Request{Expr: sel, Col: "id"})
		if err != nil {
			t.Fatal(err)
		}
		avgs = append(avgs, avg)
		gs, rep, err := sampleOnly(workers).GroupCount(ctx, relest.Request{Expr: sel, Col: "a"})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Answered != relest.TierAnsweredSample {
			t.Errorf("group count answered by tier %q", rep.Answered)
		}
		groups = append(groups, gs)
	}

	requireSameEstimate(t, "sum workers 1 vs 4", sums[0], sums[1])
	if !bitsEqual(avgs[0].Avg, avgs[1].Avg) || !bitsEqual(avgs[0].Sum.Value, avgs[1].Sum.Value) {
		t.Errorf("avg at workers=1 %+v != workers=4 %+v", avgs[0], avgs[1])
	}
	if len(groups[0]) == 0 || len(groups[0]) != len(groups[1]) {
		t.Fatalf("group count: %d vs %d groups", len(groups[0]), len(groups[1]))
	}
	for i := range groups[0] {
		if !groups[0][i].Value.Equal(groups[1][i].Value) || !bitsEqual(groups[0][i].Count, groups[1][i].Count) {
			t.Errorf("group %d: %+v != %+v", i, groups[0][i], groups[1][i])
		}
	}
}
