package estimator

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"relest/internal/algebra"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/workload"
)

// extensionFixture is a Zipf pair of n rows each over a 200-value join
// domain, the equi-join and σ-join over it, and a single-relation σ.
func extensionFixture(n int) (r1, r2 *relation.Relation, exprs []*algebra.Expr) {
	rng := sampling.Seeded(13)
	r1 = workload.ZipfRelation(rng, "R1", 0.5, 200, n, workload.MapRandom)
	r2 = workload.ZipfRelation(rng, "R2", 1.0, 200, n, workload.MapRandom)
	on := []algebra.On{{Left: "a", Right: "a"}}
	sel := algebra.Must(algebra.Select(algebra.BaseOf(r1), algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(60)}))
	exprs = []*algebra.Expr{
		algebra.Must(algebra.Join(algebra.BaseOf(r1), algebra.BaseOf(r2), on, nil, "r2_")),
		algebra.Must(algebra.Join(sel, algebra.BaseOf(r2), on, nil, "r2_")),
		sel,
	}
	return r1, r2, exprs
}

// redrawExtendTo is the extension as it stood before samples grew by
// appending: the same draw (the relation's draw state, which a request's
// rounds draw from in the same order), then the unit list sorted and the
// sample view rebuilt from the base with no index carried over. Tuple
// designs only.
func redrawExtendTo(syn *Synopsis, rels []string, rng *rand.Rand, want func(n, N int) int) {
	for _, rel := range rels {
		rs := syn.rels[rel]
		w := min(want(rs.n, rs.N), rs.N)
		if w <= rs.n {
			continue
		}
		if rs.draw == nil {
			rs.draw = sampling.NewDraw(rs.M, rs.units)
		}
		units := slices.Clone(rs.units)
		for _, id := range rs.draw.Next(rng, w-rs.n) {
			units = append(units, int(id))
		}
		slices.Sort(units)
		rs.units, rs.m, rs.n = units, len(units), len(units)
		rs.sample = rs.base.Subset(rel, units)
	}
}

// TestExtensionRoundsMatchRedraw pins deadline rounds and sequential
// answers on tuple designs to the redraw-and-rebuild extension they
// replaced: under the analytic variance, with one worker and four, every
// round's estimate — value, variance and interval — is bit for bit what
// the same rounds give when every extension redraws the sorted sample and
// rebuilds its indexes. The rounds run to a census, so the draws cross
// from rejection into both complement branches, and the equi-join, the
// σ-join and the single-relation σ read grown indexes, re-slotted ones
// included.
func TestExtensionRoundsMatchRedraw(t *testing.T) {
	r1, r2, exprs := extensionFixture(3000)
	draw := func() *Synopsis {
		rng := sampling.Seeded(5)
		syn := NewSynopsis()
		for _, r := range []*relation.Relation{r1, r2} {
			if err := syn.AddDrawn(r, 40, rng); err != nil {
				t.Fatal(err)
			}
		}
		return syn
	}
	for _, workers := range []int{1, 4} {
		for ei, e := range exprs {
			opts := Options{Variance: VarAnalytic, Workers: workers, Seed: 9}
			poly, err := algebra.Normalize(e)
			if err != nil {
				t.Fatal(err)
			}
			rels := poly.RelationNames()

			_, history, err := DeadlineCountContext(context.Background(), e, draw(),
				DeadlineOptions{Budget: time.Minute, InitialSize: 50, Estimate: opts, Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			if last := history[len(history)-1]; last.SampleSizes[rels[0]] != r1.Len() {
				t.Fatalf("expr %d: deadline stopped short of a census: %v", ei, last.SampleSizes)
			}
			ref, rng := draw(), sampling.Seeded(21)
			for i, step := range history {
				redrawExtendTo(ref, rels, rng, func(int, int) int { return step.SampleSizes[rels[0]] })
				want, err := estimatePoly(context.Background(), poly, ref, opts.withDefaults(), countContrib)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(step.Estimate.Value, want.Value) || !sameBits(step.Estimate.Variance, want.Variance) ||
					!sameBits(step.Estimate.Lo, want.Lo) || !sameBits(step.Estimate.Hi, want.Hi) {
					t.Errorf("workers %d expr %d round %d (%v): %+v, redraw %+v", workers, ei, i+1, step.SampleSizes, step.Estimate, want)
				}
			}

			seqOpts := SequentialOptions{TargetRelErr: 0.03, PilotSize: 120, Estimate: opts, Seed: 23}
			res, err := SequentialCountContext(context.Background(), e, draw(), seqOpts)
			if err != nil {
				t.Fatal(err)
			}
			ref, rng = draw(), sampling.Seeded(23)
			redrawExtendTo(ref, rels, rng, func(int, int) int { return seqOpts.PilotSize })
			pilot, err := estimatePoly(context.Background(), poly, ref, opts.withDefaults(), countContrib)
			if err != nil {
				t.Fatal(err)
			}
			redrawExtendTo(ref, rels, rng, func(n, N int) int { return growTarget(n, res.GrowthFactor, 1, N) })
			final, err := estimatePoly(context.Background(), poly, ref, opts.withDefaults(), countContrib)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				phase     string
				got, want Estimate
			}{{"pilot", res.Pilot, pilot}, {"final", res.Final, final}} {
				if !sameBits(c.got.Value, c.want.Value) || !sameBits(c.got.Variance, c.want.Variance) {
					t.Errorf("workers %d expr %d sequential %s: %+v, redraw %+v", workers, ei, c.phase, c.got, c.want)
				}
			}
		}
	}
}

// TestPageDesignExtension is the regression test for page-design
// extension in the deadline and sequential loops, whose row targets were
// once passed to ExtendSample as page counts (failing with "cannot extend
// sample", or overshooting the target several times over): both loops
// must run on page synopses, and every extension must stop within one
// page of its row target.
func TestPageDesignExtension(t *testing.T) {
	const pageSize, pages = 10, 20
	r1, r2, exprs := extensionFixture(20_000)
	draw := func() *Synopsis {
		rng := sampling.Seeded(3)
		syn := NewSynopsis()
		for _, r := range []*relation.Relation{r1, r2} {
			if err := syn.AddDrawnPages(r, pageSize, pages, rng); err != nil {
				t.Fatal(err)
			}
		}
		return syn
	}
	e := exprs[0]
	rels := []string{"R1", "R2"}
	withinOnePage := func(what string, before, after map[string]int, target int) {
		for _, rel := range rels {
			if after[rel] > before[rel] && (after[rel] < min(target, r1.Len()) || after[rel] >= target+pageSize) {
				t.Errorf("%s: %s grew %d → %d rows for a target of %d (page size %d)", what, rel, before[rel], after[rel], target, pageSize)
			}
		}
	}

	syn := draw()
	opts := DeadlineOptions{Budget: time.Minute, InitialSize: 50, Estimate: Options{Seed: 1}, Seed: 2}
	_, history, err := DeadlineCountContext(context.Background(), e, syn, opts)
	if err != nil {
		t.Fatal(err)
	}
	prev := map[string]int{"R1": pageSize * pages, "R2": pageSize * pages}
	target := opts.InitialSize
	for i, step := range history {
		withinOnePage("deadline round "+string(rune('1'+i)), prev, step.SampleSizes, target)
		prev, target = step.SampleSizes, min(2*target, r1.Len())
	}
	if n := history[len(history)-1].SampleSizes["R1"]; n != r1.Len() {
		t.Errorf("deadline loop ended at %d rows of %d without a census", n, r1.Len())
	}

	syn = draw()
	res, err := SequentialCountContext(context.Background(), e, syn, SequentialOptions{TargetRelErr: 0.02, PilotSize: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.GrowthFactor <= 1 {
		t.Fatalf("growth factor %v: the fixture no longer exercises phase two", res.GrowthFactor)
	}
	pilot := pageSize * pages
	withinOnePage("sequential", map[string]int{"R1": pilot, "R2": pilot}, res.SampleSizes,
		growTarget(pilot, res.GrowthFactor, 1, r1.Len()))
	if res.SampleSizes["R1"] == pilot {
		t.Errorf("sequential phase two did not grow: %v", res.SampleSizes)
	}
}
