package estimator

import (
	"context"
	"math"
	"testing"
	"time"

	"relest/internal/algebra"
	"relest/internal/relation"
	"relest/internal/sampling"
)

// roundsFixture is three 1 500-row relations on the layout (k Int,
// s String, v Int), each with its own string dictionary — R holds
// duplicate rows — and a fourth of the same layout, D, drawn without any,
// and expressions whose terms the running tallies take — joins on the Int
// key, on the string key with a σ on the far side, on both, and one with
// a product whose occurrence folds into the tail — or take only in part:
// a union of two joins (split-sample variance; R's duplicates keep its
// polynomial unfused), a self-join, which reads R twice and so is counted
// afresh every round, and a union of two selections of D joined to S,
// which fuses into one weighted term that no tally takes.
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

// TestDeadlineRoundsMatchFreshEngine runs deadline requests to a census
// and sequential requests, and replays each round's draws on a second
// synopsis estimated by a fresh engine per round (estimatePoly), which
// plans and counts every term over the whole sample: every round's value,
// variance, interval and method must have the same bits, under the
// automatic and the jackknife variance, at one worker and at four. The
// reference polynomial is Normalize's for every expression but the
// union of D's selections, whose is the fused one a COUNT request
// estimates (countPoly); no round tallies a weighted term.
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
				for ti, rt := range newRounds(poly, syn).tallies {
					if poly.Terms[ti].Weight != nil {
						weighted++
						if rt != nil {
							t.Fatalf("expr %d: a running tally took weighted term %d", ei, ti)
						}
					}
				}
				if (weighted > 0) != fuses {
					t.Fatalf("expr %d: %d weighted terms; only the union of selections fuses", ei, weighted)
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
}
