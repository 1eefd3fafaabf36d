package algebra

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"relest/internal/relation"
)

// enumeratedMarginals is the reference the moment pass must reproduce:
// every satisfying assignment visited once, counted per bound row.
func enumeratedMarginals(pt *PreparedTerm) Marginals {
	ref := Marginals{Rows: make([][]float64, len(pt.Instances()))}
	for occ, r := range pt.Instances() {
		ref.Rows[occ] = make([]float64, r.Len())
	}
	pt.Enumerate(func(rows []int) bool {
		for occ, row := range rows {
			ref.Rows[occ][row]++
		}
		ref.Total++
		return true
	})
	return ref
}

// marginalsMatch reports whether the plan's moment pass equals the
// enumeration reference exactly and its Total equals Count bit for bit,
// and whether a plan with the Pairs shape tallies the same numbers.
func marginalsMatch(t *testing.T, pt *PreparedTerm, what string) bool {
	t.Helper()
	got, want := pt.Marginals(), enumeratedMarginals(pt)
	if math.Float64bits(got.Total) != math.Float64bits(want.Total) {
		t.Errorf("%s: Total %v, enumeration %v (factorizes %v)", what, got.Total, want.Total, pt.Factorizes())
		return false
	}
	if c := pt.Count(); math.Float64bits(got.Total) != math.Float64bits(c) {
		t.Errorf("%s: Total %v, Count %v", what, got.Total, c)
		return false
	}
	for occ := range want.Rows {
		if !slices.Equal(got.Rows[occ], want.Rows[occ]) {
			t.Errorf("%s: occurrence %d marginals %v, enumeration %v (factorizes %v)", what, occ, got.Rows[occ], want.Rows[occ], pt.Factorizes())
			return false
		}
	}
	return !pt.Pairs() || pairMomentsMatch(t, pt, want, what) && weightedPairsMatch(t, pt, what)
}

// pairMomentsMatch reports whether the pair tally of a plan with the
// Pairs shape gives Total equal to Count bit for bit and, for each enumerated occurrence, SumSq equal to the sum
// of its squared enumerated per-row counts (the reference's marginals
// with the folded tail's factor divided out, exactly), zero elsewhere.
func pairMomentsMatch(t *testing.T, pt *PreparedTerm, ref Marginals, what string) bool {
	t.Helper()
	p := pt.p
	want := make([]float64, len(p.inst))
	if p.tailFactor != 0 {
		for _, k := range []int{0, 1} {
			occ := p.steps[k].occ
			for _, v := range ref.Rows[occ] {
				c := v / p.tailFactor
				want[occ] += c * c
			}
		}
	}
	pm, counts := pt.PairMoments(nil)
	if !reflect.DeepEqual(pm, counts) {
		t.Errorf("%s: an unweighted tally's moments %+v differ from its counts %+v", what, pm, counts)
		return false
	}
	if c := pt.Count(); math.Float64bits(pm.Total) != math.Float64bits(c) {
		t.Errorf("%s: tally Total %v, Count %v", what, pm.Total, c)
		return false
	}
	if !slices.Equal(pm.SumSq, want) {
		t.Errorf("%s: tally squares %v, enumeration %v", what, pm.SumSq, want)
		return false
	}
	return true
}

// weightedPairsMatch reports whether the weighted pair tally of a plan
// with the Pairs shape reproduces enumeration, with the weight on either
// enumerated occurrence: Total = Σ over assignments of the bound row's
// weight, SumY2 the sum of its squares and SumSq[occ] the sum over occ's
// rows of the squared per-row weight totals (the tail's factor divided
// out). An integer weight (negative and zero ones included) must match
// exactly, a positive float weight to 1e-12 relative; both must give the
// same bits on a second pass, and leave the counts unchanged.
func weightedPairsMatch(t *testing.T, pt *PreparedTerm, what string) bool {
	t.Helper()
	p := pt.p
	weights := []struct {
		name  string
		w     func(row int) float64
		exact bool
	}{
		{"integer", func(row int) float64 { return float64(row%7 - 2) }, true},
		{"float", func(row int) float64 { return 0.1*float64(row) + 1.0/3 }, false},
	}
	_, plain := pt.PairMoments(nil)
	for _, step := range p.steps[:2] {
		for _, wc := range weights {
			rw := &RowWeight{Occ: step.occ, W: wc.w}
			var want PairMoments
			want.SumSq = make([]float64, len(p.inst))
			perRow := make([][]float64, len(p.inst))
			for _, s := range p.steps[:2] {
				perRow[s.occ] = make([]float64, p.inst[s.occ].Len())
			}
			pt.Enumerate(func(rows []int) bool {
				y := wc.w(rows[step.occ])
				want.Total += y
				want.SumY2 += y * y
				for _, s := range p.steps[:2] {
					perRow[s.occ][rows[s.occ]] += y
				}
				return true
			})
			if p.tailFactor != 0 {
				want.SumY2 /= p.tailFactor
				for _, s := range p.steps[:2] {
					for _, v := range perRow[s.occ] {
						v /= p.tailFactor
						want.SumSq[s.occ] += v * v
					}
				}
			}
			got, counts := pt.PairMoments(rw)
			if again, countsAgain := pt.PairMoments(rw); !reflect.DeepEqual(again, got) || !reflect.DeepEqual(countsAgain, counts) {
				t.Errorf("%s: %s weight on occurrence %d tallies %+v, then %+v", what, wc.name, step.occ, got, again)
				return false
			}
			if !reflect.DeepEqual(counts, plain) {
				t.Errorf("%s: a weighted pass's counts %+v differ from the plain tally's %+v", what, counts, plain)
				return false
			}
			close := func(a, b float64) bool {
				if wc.exact {
					return a == b
				}
				return math.Abs(a-b) <= 1e-12*math.Abs(b)
			}
			ok := close(got.Total, want.Total) && close(got.SumY2, want.SumY2)
			for occ := range want.SumSq {
				ok = ok && close(got.SumSq[occ], want.SumSq[occ])
			}
			if !ok {
				t.Errorf("%s: %s weight on occurrence %d tallies %+v, enumeration %+v", what, wc.name, step.occ, got, want)
				return false
			}
		}
	}
	return true
}

// nullableCatalog is randomCatalog's layout-compatible variant for keys
// the moment pass must bucket like the probe does: column b is Float with
// values that Equal some Int keys of column a (Int↔Float joins), and
// either column may be NULL (null keys share one bucket).
func nullableCatalog(rng *rand.Rand) (MapCatalog, []*Expr) {
	cat := MapCatalog{}
	var bases []*Expr
	for _, name := range []string{"A", "B", "C"} {
		r := relation.New(name, relation.MustSchema(
			relation.Column{Name: "a", Kind: relation.KindInt},
			relation.Column{Name: "b", Kind: relation.KindFloat},
		))
		for i, n := 0, 3+rng.Intn(8); i < n; i++ {
			row := relation.Tuple{relation.Int(int64(rng.Intn(5))), relation.Float(float64(rng.Intn(3)) * 2)}
			if rng.Intn(5) == 0 {
				row[rng.Intn(2)] = relation.Null()
			}
			r.MustAppend(row)
		}
		cat[name] = r
		bases = append(bases, BaseOf(r))
	}
	return cat, bases
}

// TestQuickMarginalsMatchEnumeration checks the moment pass against
// enumeration on the terms of random π-free expressions from the
// normalizer's generator: σ'd candidate lists (σ over a missing value
// empties a join), joins and self-joins, composite keys (∩ equates every
// column), products with folded tails, chains the pass must enumerate,
// over duplicate-free integer relations and over relations with null keys
// and Int↔Float key pairs, each term over sample views of them.
// (A plan buckets keys by their codes in its key domain; relation's
// domain collision test pins distinct codes for keys on one probe chain.)
func TestQuickMarginalsMatchEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var terms, keyed, tailed, enumTailed, empty, enumerated int
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
		cat, _ := sampleViews(rng, base, 1+rng.Intn(3))
		for ti := range poly.Terms {
			tm := &poly.Terms[ti]
			inst, err := BindInstances(tm, cat)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := Prepare(tm, inst)
			if err != nil {
				t.Fatal(err)
			}
			terms++
			switch p := pt.p; {
			case !pt.Factorizes():
				enumerated++
			case p.enumUpto == 2 && pt.Count() == 0:
				empty++
			case p.enumUpto == 2:
				keyed++
			}
			if p := pt.p; p.enumUpto > 0 && p.enumUpto < len(p.steps) {
				if pt.Factorizes() {
					tailed++
				} else {
					enumTailed++
				}
			}
			if !marginalsMatch(t, pt, "full plan") {
				t.Logf("trial %d term %d: %v", trial, ti, tm)
				break
			}
		}
	}
	t.Logf("%d terms: %d keyed joins, %d empty joins, %d with folded tails, %d enumerated (%d of them before a folded tail)",
		terms, keyed, empty, tailed, enumerated, enumTailed)
	if terms < 300 || keyed == 0 || empty == 0 || tailed == 0 || enumerated == 0 || enumTailed == 0 {
		t.Errorf("the generator has lost coverage: %d terms, %d keyed, %d empty, %d tailed, %d enumerated, %d enumerated before a tail",
			terms, keyed, empty, tailed, enumerated, enumTailed)
	}
}

// TestMarginalsPartitioned covers a join large enough to count in parts
// (Parts > 1): Total must still add one product per part, as Count does.
func TestMarginalsPartitioned(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindInt},
	)
	r := relation.New("R", schema)
	s := relation.New("S", schema)
	for i := 0; i < 10000; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i % 3001)), relation.Int(int64(i))})
	}
	for i := 0; i < 9000; i++ {
		s.MustAppend(relation.Tuple{relation.Int(int64(i % 2999)), relation.Int(int64(i))})
	}
	cat := MapCatalog{"R": r, "S": s}
	poly, err := Normalize(Must(Join(BaseOf(s), BaseOf(r), []On{{Left: "a", Right: "a"}}, nil, "r_")))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BindInstances(&poly.Terms[0], cat)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Prepare(&poly.Terms[0], inst)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Parts() == 1 || !pt.Factorizes() {
		t.Fatalf("fixture counts in %d part(s), factorizes %v; want a partitioned factorized join", pt.Parts(), pt.Factorizes())
	}
	marginalsMatch(t, pt, "partitioned join")
}

// TestPairMomentsSumBitsPinned pins the bits of a SUM-weighted pair tally
// whose scan side counts in Parts() = 16 chunks, every key repeating
// within each chunk and across them, with the weight on each enumerated
// occurrence. Float addition does not associate, so the
// values hold the tally's summation order: each code's scanned weights
// summed per part and folded into the code's total at each part boundary
// in part order, the indexed side's weights summed in ascending row
// order, and the final sums taken over codes in the order the scan first
// paired them.
func TestPairMomentsSumBitsPinned(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindInt},
	)
	r := relation.New("R", schema)
	s := relation.New("S", schema)
	for i := 0; i < 5000; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i * 7919 % 97)), relation.Int(int64(i))})
	}
	for i := 0; i < 6000; i++ {
		s.MustAppend(relation.Tuple{relation.Int(int64(i * 104729 % 101)), relation.Int(int64(i))})
	}
	cat := MapCatalog{"R": r, "S": s}
	poly, err := Normalize(Must(Join(BaseOf(r), BaseOf(s), []On{{Left: "a", Right: "a"}}, nil, "s_")))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BindInstances(&poly.Terms[0], cat)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Prepare(&poly.Terms[0], inst)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Pairs() || pt.Parts() != 16 {
		t.Fatalf("fixture: pairs %v in %d parts; want a Pairs plan in 16", pt.Pairs(), pt.Parts())
	}
	w := func(row int) float64 { return 1e3/float64(row+1) + 0.37*float64(row) - 1.0/3 }
	for _, c := range []struct {
		step int
		want [4]uint64 // Total, SumY2, SumSq of the scanned and of the indexed occurrence
	}{
		{0, [4]uint64{0x41b065fa41e92bba, 0x4253b98756989e75, 0x42b24f084cb619d1, 0x42a7e5cd9c75f5ac}},
		{1, [4]uint64{0x41b3ab2ed4c2d876, 0x425c65bdfb0c89ba, 0x42b3cf22344fcb4d, 0x42b6df7a766f7b1b}},
	} {
		occ := pt.p.steps[c.step].occ
		pm, _ := pt.PairMoments(&RowWeight{Occ: occ, W: w})
		got := [4]uint64{
			math.Float64bits(pm.Total), math.Float64bits(pm.SumY2),
			math.Float64bits(pm.SumSq[pt.p.steps[0].occ]), math.Float64bits(pm.SumSq[pt.p.steps[1].occ]),
		}
		if got != c.want {
			t.Errorf("weight on plan step %d: moments bits %#x (%+v), want %#x", c.step, got, pm, c.want)
		}
	}
}
