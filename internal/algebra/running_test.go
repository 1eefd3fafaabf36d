package algebra

import (
	"math"
	"math/rand"
	"testing"

	"relest/internal/relation"
)

// runningFixture builds three relations on the layout (k Int, s String,
// v Int), each interning its strings in its own dictionary, with keys
// over small overlapping domains so joins match.
func runningFixture(rng *rand.Rand) MapCatalog {
	cat := MapCatalog{}
	words := []string{"a", "b", "c", "d", "e", "f"}
	for _, name := range []string{"R", "S", "U"} {
		r := relation.New(name, relation.MustSchema(
			relation.Column{Name: "k", Kind: relation.KindInt},
			relation.Column{Name: "s", Kind: relation.KindString},
			relation.Column{Name: "v", Kind: relation.KindInt},
		))
		domain := 5 + rng.Intn(300)
		for i, n := 0, 20+rng.Intn(2000); i < n; i++ {
			r.MustAppend(relation.Tuple{
				relation.Int(int64(rng.Intn(domain))),
				relation.Str(words[rng.Intn(len(words))]),
				relation.Int(int64(rng.Intn(100))),
			})
		}
		cat[name] = r
	}
	return cat
}

// randomPairExpr returns a COUNT expression whose one term is pair-shaped:
// R joined to S on the Int key, the string key or both, a σ on either side
// or both, and sometimes a product with U, σ'd or not, that folds into
// the tail (a σ that keeps no row of U empties it).
func randomPairExpr(rng *rand.Rand, cat MapCatalog) *Expr {
	side := func(name string) *Expr {
		e := BaseOf(cat[name])
		switch rng.Intn(3) {
		case 0:
			return Must(Select(e, Cmp{Col: "v", Op: LT, Val: relation.Int(int64(rng.Intn(120)) - 10)}))
		case 1:
			return Must(Select(e, Cmp{Col: "s", Op: NE, Val: relation.Str("a")}))
		}
		return e
	}
	on := [][]On{
		{{Left: "k", Right: "k"}},
		{{Left: "s", Right: "s"}},
		{{Left: "k", Right: "k"}, {Left: "s", Right: "s"}},
	}[rng.Intn(3)]
	e := Must(Join(side("R"), side("S"), on, nil, "S"))
	if rng.Intn(3) == 0 {
		e = Must(Product(e, side("U"), "U"))
	}
	return e
}

// TestQuickRunningTallyMatchesPairMoments grows sample views of random
// pair-shaped terms over random round schedules — some relations skip a
// round, some rounds add more rows than the view holds, so later rounds
// count in parts — and advances a running tally each round. Its moments
// must equal, bit for bit, the counts of a fresh plan over the round's
// views: PairMoments at one worker and at four where the plan has the
// Pairs shape, Count where a folded occurrence leads its order.
func TestQuickRunningTallyMatchesPairMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	var pairs, counted, parted int
	for trial := 0; trial < 120 && !t.Failed(); trial++ {
		base := runningFixture(rng)
		poly, err := Normalize(randomPairExpr(rng, base))
		if err != nil {
			t.Fatal(err)
		}
		tm := &poly.Terms[0]
		dom := relation.NewMemoKeyDomain()
		rt, ok := NewRunningTally(tm, dom)
		if !ok {
			t.Fatalf("trial %d: %v is not pair-shaped", trial, tm)
		}
		views := MapCatalog{}
		for _, name := range []string{"R", "S", "U"} {
			views[name] = base[name].Subset(name, randomPositions(rng, base[name].Len(), rng.Intn(60)))
		}
		for round := 0; round < 7; round++ {
			if round > 0 {
				for _, name := range []string{"R", "S", "U"} {
					v := views[name]
					add := rng.Intn(3*v.Len() + 60)
					if name == "U" {
						add = rng.Intn(12) // a small tail keeps Count cheap where it leads the order
					}
					if rng.Intn(5) > 0 {
						views[name] = v.Extend(base[name], randomPositions(rng, base[name].Len(), add))
					}
				}
			}
			inst, err := BindInstances(tm, views)
			if err != nil {
				t.Fatal(err)
			}
			got := rt.Advance(inst)
			pt, err := prepare(tm, inst, dom)
			if err != nil {
				t.Fatal(err)
			}
			if !pt.Pairs() {
				counted++
				if want := pt.Count(); math.Float64bits(got.Total) != math.Float64bits(want) {
					t.Errorf("trial %d round %d: running total %v, Count %v", trial, round, got.Total, want)
				}
				continue
			}
			pairs++
			if pt.Parts() > 1 {
				parted++
			}
			for _, workers := range []int{1, 4} {
				if _, want := pt.PairMoments(workers, nil); !sameMoments(got, want) {
					t.Errorf("trial %d round %d, %d workers: running tally %+v, fresh %+v (term %v)", trial, round, workers, got, want, tm)
					break
				}
			}
		}
	}
	t.Logf("%d rounds checked against PairMoments (%d in parts), %d against Count", pairs, parted, counted)
	if pairs < 300 || parted == 0 || counted == 0 {
		t.Errorf("the generator has lost coverage: %d pair rounds, %d in parts, %d counted", pairs, parted, counted)
	}
}

// TestRunningTallyRejects lists the terms a running tally does not take:
// one whose equalities join more than two occurrences, one with a residual
// predicate across occurrences, and one with no join at all.
func TestRunningTallyRejects(t *testing.T) {
	cat := runningFixture(rand.New(rand.NewSource(1)))
	r, s, u := BaseOf(cat["R"]), BaseOf(cat["S"]), BaseOf(cat["U"])
	chain := Must(Join(Must(Join(r, s, []On{{Left: "k", Right: "k"}}, nil, "S")), u, []On{{Left: "S.v", Right: "v"}}, nil, "U"))
	theta := Must(Join(r, s, []On{{Left: "k", Right: "k"}}, ColCmp{A: "v", Op: LT, B: "S.v"}, "S"))
	for name, e := range map[string]*Expr{"chain": chain, "theta": theta, "product": Must(Product(r, s, "S"))} {
		poly, err := Normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := NewRunningTally(&poly.Terms[0], relation.NewMemoKeyDomain()); ok {
			t.Errorf("%s: a running tally took %v", name, &poly.Terms[0])
		}
	}
}

// randomPositions returns k positions drawn with replacement from [0, n).
func randomPositions(rng *rand.Rand, n, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}
