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

// codedMatchesHashed reports whether the coded plan answers what the
// hashed plan of the same term answers, bit for bit: the pair tally at one
// worker and at four, unweighted and with a Float weight on either
// enumerated occurrence, and the moment pass.
func codedMatchesHashed(t *testing.T, coded, hashed *PreparedTerm, what string) bool {
	t.Helper()
	weights := []*RowWeight{nil}
	for _, st := range coded.p.steps[:2] {
		weights = append(weights, &RowWeight{Occ: st.occ, W: func(row int) float64 { return 0.1*float64(row) + 1.0/3 }})
	}
	for _, w := range weights {
		for _, workers := range []int{1, 4} {
			gotPM, gotCounts := coded.PairMoments(workers, w)
			wantPM, wantCounts := hashed.PairMoments(workers, w)
			if !sameMoments(gotPM, wantPM) || !sameMoments(gotCounts, wantCounts) {
				occ := -1
				if w != nil {
					occ = w.Occ
				}
				t.Errorf("%s: weight on occurrence %d, %d workers: coded tally %+v %+v, hashed %+v %+v", what, occ, workers, gotPM, gotCounts, wantPM, wantCounts)
				return false
			}
		}
	}
	if got, want := coded.Marginals(), hashed.Marginals(); !sameMarginals(got, want) {
		t.Errorf("%s: coded moment pass %+v, hashed %+v", what, got, want)
		return false
	}
	return true
}

// TestQuickCodedPairsMatchHashed compiles the terms of the normalizer's
// random expressions twice, with and without a key domain, over sample
// views of relations with and without null and Int↔Float keys: a coded
// pair plan must tally and pass exactly as the hashed plan does, and
// reproduce enumeration; a composite key (∩) stays hashed.
func TestQuickCodedPairsMatchHashed(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	var coded, composite int
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
		dom := relation.NewKeyDomain()
		for ti := range poly.Terms {
			tm := &poly.Terms[ti]
			inst, err := BindInstances(tm, cat)
			if err != nil {
				t.Fatal(err)
			}
			hashed, err := Prepare(tm, inst)
			if err != nil {
				t.Fatal(err)
			}
			pc, err := prepare(tm, inst, dom)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case pc.Coded():
				coded++
			case pc.Pairs() && len(pc.p.steps[1].keyCols) > 1:
				composite++
			case pc.Pairs():
				t.Fatalf("trial %d term %d: a single-column pair join over sample views is not coded: %v", trial, ti, tm)
			}
			if pc.Coded() && (!codedMatchesHashed(t, pc, hashed, "coded plan") || !marginalsMatch(t, pc, "coded plan")) {
				t.Logf("trial %d term %d: %v", trial, ti, tm)
				break
			}
		}
	}
	t.Logf("%d coded pair plans, %d composite-key pair plans", coded, composite)
	if coded < 40 || composite == 0 {
		t.Errorf("the generator has lost coverage: %d coded, %d composite", coded, composite)
	}
}

// TestCodedPairsPartitioned covers coded joins large enough to count in
// parts (Parts > 1), on an int key and on a string key whose relations
// intern their strings in two dictionaries: the coded plan tallies and
// passes with the hashed plan's bits at one worker and at four, and
// builds no hash index doing so.
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
		hashed, err := Prepare(&poly.Terms[0], inst)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := prepare(&poly.Terms[0], inst, relation.NewKeyDomain())
		if err != nil {
			t.Fatal(err)
		}
		if pc.Parts() == 1 || !pc.Coded() {
			t.Fatalf("%v key: fixture counts in %d part(s), coded %v; want a partitioned coded join", kind, pc.Parts(), pc.Coded())
		}
		codedMatchesHashed(t, pc, hashed, fmt.Sprintf("%v key", kind))
		if pc.p.steps[1].index.ix != nil {
			t.Errorf("%v key: the coded tally built a hash index", kind)
		}
		marginalsMatch(t, pc, fmt.Sprintf("%v key, coded", kind))
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
// over sample views of two 100k-row relations with 2 000 keys: probing
// the second view's prebuilt hash index with every row of the first
// (hashed), against counting both views' prebuilt key codes (coded).
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
		for _, keys := range []string{"hashed", "coded"} {
			b.Run(fmt.Sprintf("%s/n=%d", keys, n), func(b *testing.B) {
				var dom *relation.KeyDomain
				if keys == "coded" {
					dom = relation.NewKeyDomain()
				}
				pt, err := prepare(&poly.Terms[0], inst, dom)
				if err != nil {
					b.Fatal(err)
				}
				pt.PairMoments(1, nil) // the index or the codes, built once
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pt.PairMoments(1, nil)
				}
			})
		}
	}
}
