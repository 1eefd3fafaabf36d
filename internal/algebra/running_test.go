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

// enumeratedPairMoments is the reference a pair tally must reproduce for
// a plan with the Pairs shape, taken from enumeration and not from any
// tally: Total is Count, SumY2 the number of assignments of the two
// enumerated steps, and SumSq[occ] the sum over occurrence occ's rows of
// their squared assignment counts (all zero but Total when the folded
// tail is empty).
func enumeratedPairMoments(pt *PreparedTerm) PairMoments {
	p := pt.p
	ref := PairMoments{Total: pt.Count(), SumSq: make([]float64, len(p.inst))}
	if p.tailFactor == 0 {
		return ref
	}
	per := make([][]float64, len(p.inst))
	for _, st := range p.steps[:2] {
		per[st.occ] = make([]float64, p.inst[st.occ].Len())
	}
	p.enumerate(p.newEval(), 0, 1, 2, func(rows []int) bool {
		ref.SumY2++
		for _, st := range p.steps[:2] {
			per[st.occ][rows[st.occ]]++
		}
		return true
	})
	for occ, counts := range per {
		for _, c := range counts {
			ref.SumSq[occ] += c * c
		}
	}
	return ref
}

// TestQuickRunningTallyMatchesPairMoments grows sample views of random
// pair-shaped terms over random round schedules — some relations skip a
// round, some rounds add more rows than the view holds, so later rounds
// count in parts — and adds each round's base rows, in draw order, to a
// running tally, occurrence by occurrence (RunningTally.Add). Its moments
// must equal, bit for bit, what enumerating a fresh plan over the round's
// views counts (enumeratedPairMoments) where the plan has the Pairs shape,
// and Count where a folded occurrence leads its order. A round of more
// than maxEnumerated pairs is held to Count only, so the reference stays
// cheap under the race detector. A fresh plan's PairMoments must equal the
// running tally's too: the same tally, filled in one pass instead of round
// by round.
func TestQuickRunningTallyMatchesPairMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	const maxEnumerated = 1 << 20
	var pairs, counted, parted, big int
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
		views, drawn := MapCatalog{}, map[string][]int{}
		for _, name := range []string{"R", "S", "U"} {
			drawn[name] = randomPositions(rng, base[name].Len(), rng.Intn(60))
			views[name] = base[name].Subset(name, drawn[name])
		}
		for round := 0; round < 7; round++ {
			if round > 0 {
				for _, name := range []string{"R", "S", "U"} {
					v := views[name]
					add := rng.Intn(3*v.Len() + 60)
					if name == "U" {
						add = rng.Intn(12) // a small tail keeps Count cheap where it leads the order
					}
					drawn[name] = nil
					if rng.Intn(5) > 0 {
						drawn[name] = randomPositions(rng, base[name].Len(), add)
						views[name] = v.Extend(base[name], drawn[name])
					}
				}
			}
			inst, err := BindInstances(tm, views)
			if err != nil {
				t.Fatal(err)
			}
			for occ, o := range tm.Occs {
				var ids []int32
				for _, p := range drawn[o.RelName] {
					ids = append(ids, int32(p))
				}
				rt.Add(occ, base[o.RelName], ids)
			}
			got := rt.Moments()
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
			if c := pt.Count(); c > maxEnumerated*max(pt.p.tailFactor, 1) {
				big++
				if math.Float64bits(got.Total) != math.Float64bits(c) {
					t.Errorf("trial %d round %d: running total %v, Count %v", trial, round, got.Total, c)
					break
				}
			} else if want := enumeratedPairMoments(pt); !sameMoments(got, want) {
				t.Errorf("trial %d round %d: running tally %+v, enumeration %+v (term %v)", trial, round, got, want, tm)
				break
			}
			if _, fresh := pt.PairMoments(nil); !sameMoments(got, fresh) {
				t.Errorf("trial %d round %d: running tally %+v, fresh %+v (term %v)", trial, round, got, fresh, tm)
				break
			}
		}
	}
	t.Logf("%d pair rounds (%d in parts, %d too large to enumerate), %d counted", pairs, parted, big, counted)
	if pairs < 300 || parted == 0 || counted == 0 || big > pairs/20 {
		t.Errorf("the generator has lost coverage: %d pair rounds, %d in parts, %d too large to enumerate, %d counted", pairs, parted, big, counted)
	}
}

// TestRunningTallyRejects lists the terms a running tally does not take:
// one whose equalities join more than two occurrences, one with a residual
// predicate across occurrences, one with no join at all, and a self-join.
func TestRunningTallyRejects(t *testing.T) {
	cat := runningFixture(rand.New(rand.NewSource(1)))
	r, s, u := BaseOf(cat["R"]), BaseOf(cat["S"]), BaseOf(cat["U"])
	chain := Must(Join(Must(Join(r, s, []On{{Left: "k", Right: "k"}}, nil, "S")), u, []On{{Left: "S.v", Right: "v"}}, nil, "U"))
	theta := Must(Join(r, s, []On{{Left: "k", Right: "k"}}, ColCmp{A: "v", Op: LT, B: "S.v"}, "S"))
	self := Must(Join(r, r, []On{{Left: "k", Right: "k"}}, nil, "R2"))
	for name, e := range map[string]*Expr{"chain": chain, "theta": theta, "product": Must(Product(r, s, "S")), "self": self} {
		poly, err := Normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := NewRunningTally(&poly.Terms[0], relation.NewMemoKeyDomain()); ok {
			t.Errorf("%s: a running tally took %v", name, &poly.Terms[0])
		}
	}
}

// TestPairTallyFixedAtSecondSide pins that a plan's pair tally is sized
// at its second step's largest key code: scanned rows coded beyond it
// pair with nothing and do not grow the scan side's counts, and the
// moments still equal Count.
func TestPairTallyFixedAtSecondSide(t *testing.T) {
	schema := relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt})
	r, s := relation.New("R", schema), relation.New("S", schema)
	for i := 0; i < 400; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i))})
		s.MustAppend(relation.Tuple{relation.Int(int64(i % 9))})
	}
	poly, err := Normalize(Must(Join(BaseOf(r), BaseOf(s), []On{{Left: "a", Right: "a"}}, nil, "S")))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BindInstances(&poly.Terms[0], MapCatalog{"R": r, "S": s})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Prepare(&poly.Terms[0], inst)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Pairs() {
		t.Fatal("the join does not have the Pairs shape")
	}
	first, second := &pt.p.steps[0], &pt.p.steps[1]
	top, beyond := int32(-1), 0
	for _, row := range pt.p.cand[second.occ] {
		top = max(top, second.codes[row])
	}
	for _, row := range pt.p.cand[first.occ] {
		if second.probe[row] > top {
			beyond++
		}
	}
	if beyond == 0 {
		t.Fatal("no scanned row is coded beyond the second step's codes; the fixture exercises nothing")
	}
	var tally pairTally
	pt.tallyPairs(&tally, func(int, []int, int64) {})
	if len(tally.count[0]) != int(top)+1 || len(tally.count[1]) != int(top)+1 {
		t.Errorf("tally sides hold %d and %d codes, want %d each", len(tally.count[0]), len(tally.count[1]), top+1)
	}
	if pm, _ := pt.PairMoments(nil); pm.Total != pt.Count() || pm.Total != 400 {
		t.Errorf("PairMoments total %v, Count %v, want 400", pm.Total, pt.Count())
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
