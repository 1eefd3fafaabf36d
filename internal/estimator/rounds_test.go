package estimator

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"relest/internal/algebra"
	"relest/internal/relation"
	"relest/internal/sampling"
)

// roundsFixture is three 1 500-row relations on the layout (k Int,
// s String, v Int), each with its own string dictionary — R holds
// duplicate rows — and a fourth of the same layout, D, drawn without any,
// and expressions a request under the automatic variance tallies with no
// sample held — joins on the Int key, on the string key with a σ on the
// far side, and on both — and ones whose rounds grow a clone: a join with
// a product whose occurrence folds into the tail (no closed form for
// three occurrences), a union of two joins (split-sample variance; R's
// duplicates keep its polynomial unfused), a self-join, which reads R
// twice, and a union of two selections of D joined to S, which fuses
// into one weighted term that no tally takes.
func roundsFixture() (rels []*relation.Relation, exprs []*algebra.Expr) {
	rng := sampling.Seeded(17)
	words := []string{"a", "b", "c", "d", "e"}
	layout := func(name string) *relation.Relation {
		return relation.New(name, relation.MustSchema(
			relation.Column{Name: "k", Kind: relation.KindInt},
			relation.Column{Name: "s", Kind: relation.KindString},
			relation.Column{Name: "v", Kind: relation.KindInt},
		))
	}
	for _, name := range []string{"R", "S", "U"} {
		r := layout(name)
		for i := 0; i < 1500; i++ {
			r.MustAppend(relation.Tuple{
				relation.Int(int64(rng.Intn(150))),
				relation.Str(words[rng.Intn(len(words))]),
				relation.Int(int64(rng.Intn(100))),
			})
		}
		rels = append(rels, r)
	}
	d, seen := layout("D"), map[[3]int]bool{}
	for d.Len() < 1500 {
		row := [3]int{rng.Intn(150), rng.Intn(len(words)), rng.Intn(100)}
		if !seen[row] {
			seen[row] = true
			d.MustAppend(relation.Tuple{relation.Int(int64(row[0])), relation.Str(words[row[1]]), relation.Int(int64(row[2]))})
		}
	}
	rels = append(rels, d)
	r, s, u, dd := algebra.BaseOf(rels[0]), algebra.BaseOf(rels[1]), algebra.BaseOf(rels[2]), algebra.BaseOf(rels[3])
	onK := []algebra.On{{Left: "k", Right: "k"}}
	selS := algebra.Must(algebra.Select(s, algebra.Cmp{Col: "v", Op: algebra.LT, Val: relation.Int(40)}))
	selU := algebra.Must(algebra.Select(u, algebra.Cmp{Col: "s", Op: algebra.EQ, Val: relation.Str("b")}))
	exprs = []*algebra.Expr{
		algebra.Must(algebra.Join(r, s, onK, nil, "S")),
		algebra.Must(algebra.Join(r, selS, []algebra.On{{Left: "s", Right: "s"}}, nil, "S")),
		algebra.Must(algebra.Join(r, s, []algebra.On{{Left: "k", Right: "k"}, {Left: "s", Right: "s"}}, nil, "S")),
		algebra.Must(algebra.Product(algebra.Must(algebra.Join(r, selS, onK, nil, "S")), selU, "U")),
		algebra.Must(algebra.Union(algebra.Must(algebra.Join(r, s, onK, nil, "S")), algebra.Must(algebra.Join(r, u, onK, nil, "S")))),
		algebra.Must(algebra.Join(r, r, onK, nil, "R2")),
		algebra.Must(algebra.Join(algebra.Must(algebra.Union(
			algebra.Must(algebra.Select(dd, algebra.Cmp{Col: "v", Op: algebra.LT, Val: relation.Int(50)})),
			algebra.Must(algebra.Select(dd, algebra.Cmp{Col: "k", Op: algebra.GE, Val: relation.Int(40)})))), s, onK, nil, "S")),
	}
	return rels, exprs
}

// extendTo is the reference growth of a tuple-design synopsis: every
// relation's sample raised to want(n, N) rows by ExtendSample, in rels
// order, so from the same rng it draws what a request's rounds draw, and
// it materializes the rows.
func extendTo(syn *Synopsis, rels []string, rng *rand.Rand, want func(n, N int) int) error {
	for _, rel := range rels {
		rs := syn.rels[rel]
		if w := min(want(rs.n, rs.N), rs.N); w > rs.n {
			if err := syn.ExtendSample(rel, w-rs.n, rng); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestDeadlineRoundsMatchFreshEngine runs deadline requests to a census
// and sequential requests, and replays each round's draws on a second
// synopsis that materializes exactly the rows the draw yielded
// (ExtendSample from the same draw state and rng) and is estimated by a
// fresh engine per round (estimatePoly), which plans and counts every
// term over the whole sample: every round's value, variance, interval and
// method must have the same bits, under the automatic and the jackknife
// variance, at one worker and at four, whether the request held no sample
// (the three plain joins under the automatic variance) or grew a clone.
// The reference polynomial is Normalize's for every expression but the
// union of D's selections, whose is the fused one a COUNT request
// estimates (countPoly); no request tallies a weighted term.
func TestDeadlineRoundsMatchFreshEngine(t *testing.T) {
	rels, exprs := roundsFixture()
	draw := func() *Synopsis {
		rng := sampling.Seeded(3)
		syn := NewSynopsis()
		for _, r := range rels {
			if err := syn.AddDrawn(r, 30, rng); err != nil {
				t.Fatal(err)
			}
		}
		return syn
	}
	same := func(a, b Estimate) bool {
		return sameBits(a.Value, b.Value) && sameBits(a.Variance, b.Variance) &&
			sameBits(a.Lo, b.Lo) && sameBits(a.Hi, b.Hi) && a.VarianceMethod == b.VarianceMethod
	}
	if draw().duplicateFree("R") {
		t.Fatal("R holds no duplicate row: the union of joins would not cover the unfused set-operation polynomial")
	}
	ctx := context.Background()
	tallied := 0
	for _, variance := range []VarianceMethod{VarAuto, VarJackknife} {
		for _, workers := range []int{1, 4} {
			opts := Options{Variance: variance, Workers: workers, Seed: 9}
			for ei, e := range exprs {
				syn, fuses := draw(), ei == len(exprs)-1
				poly, err := algebra.Normalize(e)
				if fuses {
					poly, err = syn.countPoly(e)
				}
				if err != nil {
					t.Fatal(err)
				}
				weighted := 0
				for _, term := range poly.Terms {
					if term.Weight != nil {
						weighted++
					}
				}
				if (weighted > 0) != fuses {
					t.Fatalf("expr %d: %d weighted terms; only the union of selections fuses", ei, weighted)
				}
				r, err := newRounds(poly, syn, opts, 30)
				if err != nil {
					t.Fatal(err)
				}
				if r.tallies != nil {
					tallied++
					if weighted > 0 {
						t.Fatalf("expr %d: a request tallied a weighted term", ei)
					}
				}
				rels := poly.RelationNames()
				_, history, err := DeadlineCountContext(ctx, e, syn,
					DeadlineOptions{Budget: time.Hour, InitialSize: 30, Estimate: opts, Seed: 21})
				if err != nil {
					t.Fatal(err)
				}
				if len(history) != 7 {
					t.Fatalf("%v workers %d expr %d: %d rounds, want 7 to the census", variance, workers, ei, len(history))
				}
				ref, rng := draw(), sampling.Seeded(21)
				for i, step := range history {
					target := step.SampleSizes[rels[0]]
					if err := extendTo(ref, rels, rng, func(int, int) int { return target }); err != nil {
						t.Fatal(err)
					}
					want, err := estimatePoly(ctx, poly, ref, opts, countContrib)
					if err != nil {
						t.Fatal(err)
					}
					if !same(step.Estimate, want) {
						t.Errorf("%v workers %d expr %d round %d (%v): %+v, fresh engine %+v", variance, workers, ei, i+1, step.SampleSizes, step.Estimate, want)
					}
				}

				seqOpts := SequentialOptions{TargetRelErr: 0.02, PilotSize: 60, Estimate: opts, Seed: 23}
				res, err := SequentialCountContext(ctx, e, draw(), seqOpts)
				if err != nil {
					t.Fatal(err)
				}
				ref, rng = draw(), sampling.Seeded(23)
				seqOpts.Estimate.Confidence = 0.95
				phases := []func(n, N int) int{
					func(int, int) int { return seqOpts.PilotSize },
					func(n, N int) int { return growTarget(n, res.GrowthFactor, 1, N) },
				}
				for pi, got := range []Estimate{res.Pilot, res.Final} {
					if err := extendTo(ref, rels, rng, phases[pi]); err != nil {
						t.Fatal(err)
					}
					want, err := estimatePoly(ctx, poly, ref, seqOpts.Estimate, countContrib)
					if err != nil {
						t.Fatal(err)
					}
					if !same(got, want) {
						t.Errorf("%v workers %d expr %d sequential phase %d: %+v, fresh engine %+v", variance, workers, ei, pi+1, got, want)
					}
				}
				if math.IsNaN(res.Final.Value) {
					t.Errorf("expr %d: sequential answered NaN", ei)
				}
			}
		}
	}
	if tallied != 2*len(exprs[:3]) {
		t.Errorf("%d requests held no sample; the three plain joins under the automatic variance at two worker counts should", tallied)
	}
}

// TestRequestsLeaveSynopsisUntouched runs deadline and sequential
// requests to a census over one synopsis — tallied joins, whose rounds
// hold no sample, and a self-join and a split-sample union, whose rounds
// grow a clone — and holds the synopsis to what it was: every relation's
// sample size, its sample view (the same view, not an equal one), its
// unit list and its lack of a draw state, and its byte size.
func TestRequestsLeaveSynopsisUntouched(t *testing.T) {
	rels, exprs := roundsFixture()
	rng := sampling.Seeded(3)
	syn := NewSynopsis()
	for _, r := range rels {
		if err := syn.AddDrawn(r, 30, rng); err != nil {
			t.Fatal(err)
		}
	}
	type state struct {
		n      int
		sample *relation.Relation
		units  []int
		drawn  bool
	}
	look := func() map[string]state {
		out := map[string]state{}
		for name, rs := range syn.rels {
			out[name] = state{rs.n, rs.sample, rs.units, rs.draw != nil}
		}
		return out
	}
	same := func(a, b map[string]state) bool {
		for name, x := range a {
			y := b[name]
			if x.n != y.n || x.sample != y.sample || x.drawn != y.drawn ||
				len(x.units) != len(y.units) || cap(x.units) != cap(y.units) || &x.units[0] != &y.units[0] {
				return false
			}
		}
		return len(a) == len(b)
	}
	was, bytes := look(), syn.Bytes()
	ctx := context.Background()
	tallied := 0
	for ei, e := range exprs {
		poly, err := syn.countPoly(e)
		if err != nil {
			t.Fatal(err)
		}
		r, err := newRounds(poly, syn, Options{}, 50)
		if err != nil {
			t.Fatal(err)
		}
		if r.tallies != nil {
			tallied++
		}
		if _, _, err := DeadlineCountContext(ctx, e, syn, DeadlineOptions{Budget: time.Hour, Seed: int64(ei)}); err != nil {
			t.Fatal(err)
		}
		if _, err := SequentialCountContext(ctx, e, syn, SequentialOptions{TargetRelErr: 0.01, Seed: int64(ei)}); err != nil {
			t.Fatal(err)
		}
		if now := look(); !same(was, now) {
			t.Fatalf("expr %d (tallied %v): the synopsis went from %+v to %+v", ei, r.tallies != nil, was, now)
		}
	}
	if tallied == 0 || tallied == len(exprs) {
		t.Errorf("%d of %d requests tallied: both paths must be covered", tallied, len(exprs))
	}
	if b := syn.Bytes(); b != bytes {
		t.Errorf("synopsis bytes went from %d to %d", bytes, b)
	}
}
