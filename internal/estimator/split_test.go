package estimator

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"relest/internal/algebra"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/stats"
)

// splitGroupsRef is the sort-based grouping split-sample variance used
// before replicates became label-restricted plans, verbatim.
func splitGroupsRef(rng *rand.Rand, sample []int, g int) [][]int {
	shuffled := append([]int(nil), sample...)
	sampling.Shuffle(rng, shuffled)
	groups := make([][]int, g)
	for i, x := range shuffled {
		groups[i%g] = append(groups[i%g], x)
	}
	for i := range groups {
		sort.Ints(groups[i])
	}
	return groups
}

// splitUnitsRef is the former relSynopsis.splitUnits, verbatim.
func splitUnitsRef(rs *relSynopsis, rng *rand.Rand, g int) [][]int {
	if !rs.stratified() {
		all := make([]int, rs.m)
		for i := range all {
			all[i] = i
		}
		return splitGroupsRef(rng, all, g)
	}
	groups := make([][]int, g)
	for _, st := range rs.strata {
		for gi, part := range splitGroupsRef(rng, st.units, g) {
			groups[gi] = append(groups[gi], part...)
		}
	}
	for i := range groups {
		sort.Ints(groups[i])
	}
	return groups
}

// splitSampleVarianceRef is the replicate path split-sample variance was
// first built on: every replicate is a sub-synopsis of its groups' units
// (subSynopsisUnits) estimated by a serial pointEstimate that compiles its
// own plans.
func splitSampleVarianceRef(poly algebra.Polynomial, syn *Synopsis, opts Options, shrink bool, contrib termContrib) (float64, error) {
	need := max(poly.MaxOccurrences(), 1)
	g := opts.Groups
	minM := math.MaxInt
	for _, rel := range poly.RelationNames() {
		rs := syn.rels[rel]
		mm := rs.m
		for _, st := range rs.strata {
			mm = min(mm, len(st.units))
		}
		minM = min(minM, mm)
	}
	if minM/g < need {
		if !shrink {
			return 0, fmt.Errorf("estimator: %d split-sample groups leave fewer than %d sampling units per group (min sample %d units)", g, need, minM)
		}
		g = min(minM/need, opts.Groups)
	}
	if g < 2 {
		return 0, fmt.Errorf("estimator: samples too small for split-sample variance (min sample %d units, need %d per group)", minM, need)
	}
	rng := sampling.Seeded(opts.Seed ^ 0x5eed5eed)
	groupsByRel := map[string][][]int{}
	for _, rel := range poly.RelationNames() {
		groupsByRel[rel] = splitUnitsRef(syn.rels[rel], rng, g)
	}
	var reps stats.Welford
	for i := 0; i < g; i++ {
		unitSel := map[string][]int{}
		for _, rel := range poly.RelationNames() {
			unitSel[rel] = groupsByRel[rel][i]
		}
		v, err := pointEstimate(poly, syn.subSynopsisUnits(unitSel), newEngine(nil, syn, Options{Workers: 1}), contrib)
		if err != nil {
			return 0, err
		}
		reps.Add(v)
	}
	return reps.Variance() / float64(g), nil
}

// TestSplitSampleMatchesSubSynopses is the split-sample bit-identity
// matrix: the labelled pass must reproduce the sub-synopsis replicates'
// variance bit for bit (or fail with the same error) for every design —
// tuple, page with a short last page, stratified — × COUNT/SUM × σ, ⋈,
// 3-term ∪, self-join, θ-join, σ-product × Groups 2, 8, 13 (13 forces
// shrinking on the small samples) × workers 1, 4, requested explicitly and
// through VarAuto's shrinking rung. A SUM may instead land within 1e-12
// relative: the pass adds it in the full plan's step order, and a group
// whose own plan would bind its occurrences in another order adds it in
// another. The enumerated shapes (self-join, θ-join, folded tail) have no
// other split-sample guard.
func TestSplitSampleMatchesSubSynopses(t *testing.T) {
	f := newKernelFixture()
	br, bs := algebra.BaseOf(f.r), algebra.BaseOf(f.s)
	lt := func(col string, v int64) algebra.Predicate {
		return algebra.Cmp{Col: col, Op: algebra.LT, Val: relation.Int(v)}
	}
	join := algebra.Must(algebra.Join(br, bs, []algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
	exprs := []struct {
		name string
		e    *algebra.Expr
	}{
		{"select", algebra.Must(algebra.Select(br, lt("b", 250)))},
		{"join", join},
		{"union3", algebra.Must(algebra.Union(
			algebra.Must(algebra.Select(join, lt("b", 200))),
			algebra.Must(algebra.Select(join, lt("c", 150)))))},
		// S twice (tuple-sampled in every design) and R once.
		{"selfjoin", algebra.Must(algebra.Join(join, bs, []algebra.On{{Left: "c", Right: "c"}}, lt("b", 400), "T"))},
		// No equality: the second step is unkeyed, and R.b < S.c is checked
		// per enumerated pair.
		{"theta", algebra.Must(algebra.Select(algebra.Must(algebra.Product(br, bs, "S")),
			algebra.ColCmp{A: "b", Op: algebra.LT, B: "c"}))},
		// σ R × S: both occurrences fold into the tail's factor.
		{"selectproduct", algebra.Must(algebra.Product(algebra.Must(algebra.Select(br, lt("b", 250))), bs, "S"))},
	}
	designs := map[string]func(seed int64) *Synopsis{
		"tuple":      func(seed int64) *Synopsis { return f.synopsis(t, "tuple", seed) },
		"stratified": func(seed int64) *Synopsis { return f.synopsis(t, "stratified", seed) },
		"page": func(seed int64) *Synopsis {
			// Pages of 30 rows over 1000: page 33 holds the 10-row tail.
			syn := pageSynopsisFor(t, f.r, 30, []int{1, 4, 6, 9, 12, 15, 19, 22, 25, 28, 31, 33})
			if err := syn.AddDrawn(f.s, 90, testRand(seed)); err != nil {
				t.Fatal(err)
			}
			return syn
		},
	}
	cells, moved := 0, 0
	for design, draw := range designs {
		syn := draw(11)
		for _, ex := range exprs {
			for _, agg := range []string{"count", "sum"} {
				poly, err := algebra.Normalize(ex.e)
				contrib := countContrib
				if agg == "sum" {
					poly, contrib, err = sumPoly(ex.e, "b")
				}
				if err != nil {
					t.Fatal(err)
				}
				if ex.name == "union3" && poly.NumTerms() != 3 {
					t.Fatalf("union normalizes to %d terms, want 3", poly.NumTerms())
				}
				for _, groups := range []int{2, 8, 13} {
					for _, workers := range []int{1, 4} {
						for _, shrink := range []bool{false, true} {
							name := fmt.Sprintf("%s/%s/%s/g=%d/w=%d/shrink=%v", design, ex.name, agg, groups, workers, shrink)
							opts := Options{Groups: groups, Seed: 7, Workers: workers}.withDefaults()
							want, werr := splitSampleVarianceRef(poly, syn, opts, shrink, contrib)
							eng := newEngine(nil, syn, opts)
							if _, err := pointEstimate(poly, syn, eng, contrib); err != nil {
								t.Fatalf("%s: point estimate: %v", name, err)
							}
							got, err := splitSampleVariance(poly, syn, opts, shrink, eng, contrib)
							switch {
							case werr != nil || err != nil:
								if werr == nil || err == nil || werr.Error() != err.Error() {
									t.Errorf("%s: error %v, former path %v", name, err, werr)
								}
							case math.Float64bits(got) == math.Float64bits(want):
								cells++
							case agg == "sum" && math.Abs(got-want) <= 1e-12*math.Abs(want):
								// A SUM is added in the full plan's step order,
								// which a group's own plan may not share.
								cells++
								moved++
							default:
								t.Errorf("%s: variance %v (%016x), sub-synopsis path %v (%016x)",
									name, got, math.Float64bits(got), want, math.Float64bits(want))
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d cells, %d SUM variances within 1e-12 of the sub-synopsis path but not bit-identical", cells, moved)
	if cells < 200 {
		t.Errorf("only %d cells produced a variance; the matrix no longer exercises the replicate path", cells)
	}
}
