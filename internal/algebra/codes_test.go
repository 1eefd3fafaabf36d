package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"relest/internal/relation"
)

// sameMoments reports whether two pair tallies have the same bits.
func sameMoments(a, b PairMoments) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.Total, b.Total) || !same(a.SumY2, b.SumY2) || len(a.SumSq) != len(b.SumSq) {
		return false
	}
	for i := range a.SumSq {
		if !same(a.SumSq[i], b.SumSq[i]) {
			return false
		}
	}
	return true
}

// sameMarginals reports whether two moment passes have the same bits.
func sameMarginals(a, b Marginals) bool {
	if math.Float64bits(a.Total) != math.Float64bits(b.Total) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for occ := range a.Rows {
		if !slices.EqualFunc(a.Rows[occ], b.Rows[occ], func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			return false
		}
	}
	return true
}

// plansAgree reports whether two plans of one term over the same
// instances, their keys coded in different domains, answer alike bit for
// bit: the pair tally, unweighted and with a Float weight on either
// enumerated occurrence, and the moment pass. Codes differ between the
// domains; no bit may.
func plansAgree(t *testing.T, a, b *PreparedTerm, what string) bool {
	t.Helper()
	weights := []*RowWeight{nil}
	for _, st := range a.p.steps[:2] {
		weights = append(weights, &RowWeight{Occ: st.occ, W: func(row int) float64 { return 0.1*float64(row) + 1.0/3 }})
	}
	for _, w := range weights {
		gotPM, gotCounts := a.PairMoments(w)
		wantPM, wantCounts := b.PairMoments(w)
		if !sameMoments(gotPM, wantPM) || !sameMoments(gotCounts, wantCounts) {
			occ := -1
			if w != nil {
				occ = w.Occ
			}
			t.Errorf("%s: weight on occurrence %d: tally %+v %+v, other domain's %+v %+v", what, occ, gotPM, gotCounts, wantPM, wantCounts)
			return false
		}
	}
	if got, want := a.Marginals(), b.Marginals(); !sameMarginals(got, want) {
		t.Errorf("%s: moment pass %+v, other domain's %+v", what, got, want)
		return false
	}
	return true
}

// TestQuickPairPlansAgree compiles the terms of the normalizer's random
// expressions twice over sample views of relations with and without null
// and Int↔Float keys: once in one memoizing domain shared by every term
// (a synopsis's), once by Prepare in a domain of its own. Every pair plan,
// on one column or on a composite key (∩), must tally and pass with the
// same bits in both, and reproduce enumeration.
func TestQuickPairPlansAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	var single, composite int
	for trial := 0; trial < 400 && !t.Failed(); trial++ {
		base, bases := randomCatalog(rng)
		if trial%2 == 1 {
			base, bases = nullableCatalog(rng)
		}
		poly, err := Normalize(randomExpr(rng, bases, 2+rng.Intn(2)))
		if err != nil {
			t.Fatal(err)
		}
		if poly.NumTerms() > 40 {
			continue
		}
		cat, _ := sampleViews(rng, base, 1)
		dom := relation.NewMemoKeyDomain()
		for ti := range poly.Terms {
			tm := &poly.Terms[ti]
			inst, err := BindInstances(tm, cat)
			if err != nil {
				t.Fatal(err)
			}
			own, err := Prepare(tm, inst)
			if err != nil {
				t.Fatal(err)
			}
			shared, err := prepare(tm, inst, dom)
			if err != nil {
				t.Fatal(err)
			}
			if !shared.Pairs() {
				continue
			}
			if len(shared.p.steps[1].keyCols) > 1 {
				composite++
			} else {
				single++
			}
			if !plansAgree(t, shared, own, "pair plan") || !marginalsMatch(t, shared, "pair plan") {
				t.Logf("trial %d term %d: %v", trial, ti, tm)
				break
			}
		}
	}
	t.Logf("%d single-column pair plans, %d composite-key pair plans", single, composite)
	if single < 40 || composite == 0 {
		t.Errorf("the generator has lost coverage: %d single-column, %d composite", single, composite)
	}
}

// TestCodedPairsPartitioned covers joins large enough to count in parts
// (Parts > 1), on an int key and on a string key whose relations intern
// their strings in two dictionaries: the plan tallies and passes with the
// same bits whichever domain codes its keys, at one worker and at four,
// and reproduces enumeration.
func TestCodedPairsPartitioned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, kind := range []relation.Kind{relation.KindInt, relation.KindString} {
		schema := relation.MustSchema(
			relation.Column{Name: "a", Kind: kind},
			relation.Column{Name: "b", Kind: relation.KindInt},
		)
		key := func(k int) relation.Value {
			if kind == relation.KindString {
				return relation.Str(fmt.Sprintf("k%d", k))
			}
			return relation.Int(int64(k))
		}
		r, s := relation.New("R", schema), relation.New("S", schema)
		for i := 0; i < 12000; i++ {
			r.MustAppend(relation.Tuple{key(rng.Intn(3001)), relation.Int(int64(i))})
			s.MustAppend(relation.Tuple{key(rng.Intn(2999)), relation.Int(int64(i))})
		}
		cat := MapCatalog{"R": r.Subset("R", rng.Perm(r.Len())[:9000]), "S": s.Subset("S", rng.Perm(s.Len())[:8000])}
		poly, err := Normalize(Must(Join(BaseOf(s), BaseOf(r), []On{{Left: "a", Right: "a"}}, nil, "r_")))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := BindInstances(&poly.Terms[0], cat)
		if err != nil {
			t.Fatal(err)
		}
		own, err := Prepare(&poly.Terms[0], inst)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := prepare(&poly.Terms[0], inst, relation.NewMemoKeyDomain())
		if err != nil {
			t.Fatal(err)
		}
		if pc.Parts() == 1 || !pc.Pairs() {
			t.Fatalf("%v key: fixture counts in %d part(s), pair shape %v; want a partitioned pair join", kind, pc.Parts(), pc.Pairs())
		}
		plansAgree(t, pc, own, fmt.Sprintf("%v key", kind))
		marginalsMatch(t, pc, fmt.Sprintf("%v key", kind))
	}
}

// TestLazyIndexConcurrent shares one hashed plan among goroutines that
// enumerate and count it at once: the keyed step's index is built on
// first use, once, and every goroutine counts what a serial plan counts.
func TestLazyIndexConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	schema := relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt})
	r, s := relation.New("R", schema), relation.New("S", schema)
	for i := 0; i < 600; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(50)))})
		s.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(50)))})
	}
	cat := MapCatalog{"R": r.Subset("R", rng.Perm(600)[:400]), "S": s.Subset("S", rng.Perm(600)[:300])}
	poly, err := Normalize(Must(Join(BaseOf(r), BaseOf(s), []On{{Left: "a", Right: "a"}}, nil, "s_")))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BindInstances(&poly.Terms[0], cat)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Prepare(&poly.Terms[0], inst)
	if err != nil {
		t.Fatal(err)
	}
	want := serial.Count()
	shared, err := Prepare(&poly.Terms[0], inst)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				got[g] = shared.Count()
				return
			}
			shared.Enumerate(func([]int) bool { got[g]++; return true })
		}()
	}
	wg.Wait()
	for g, c := range got {
		if c != want {
			t.Errorf("goroutine %d counted %v, a serial plan %v", g, c, want)
		}
	}
}

// BenchmarkPairTally prices one COUNT tally of a two-relation equi-join
// over sample views of two 100k-row relations with 2 000 keys, reading
// the first view's key codes and the second's index, both built once.
func BenchmarkPairTally(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	schema := relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt})
	r, s := relation.New("R", schema), relation.New("S", schema)
	for i := 0; i < 100_000; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(2000)))})
		s.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(2000)))})
	}
	for _, n := range []int{2000, 25_600} {
		cat := MapCatalog{"R": r.Subset("R", rng.Perm(r.Len())[:n]), "S": s.Subset("S", rng.Perm(s.Len())[:n])}
		poly, err := Normalize(Must(Join(BaseOf(r), BaseOf(s), []On{{Left: "a", Right: "a"}}, nil, "s_")))
		if err != nil {
			b.Fatal(err)
		}
		inst, err := BindInstances(&poly.Terms[0], cat)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pt, err := Prepare(&poly.Terms[0], inst)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pt.PairMoments(nil)
			}
		})
	}
}
