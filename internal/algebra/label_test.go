package algebra

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"relest/internal/relation"
)

// labelledMatchesCompiled checks PreparedTerm.Label against its definition
// for every term of the polynomial: over the sample views in cat, labelled
// by labels[name], group l of the labelled pass must count and sum what a
// plan compiled over the group's rows (Subset views of the rows labelled
// l, ascending) counts and sums, once the compiled plan's rows are mapped
// back through the subset positions — Counts bit for bit, and Sums and a
// weighted PairTotals within 1e-12 relative, at workers 1 and 4, with the
// group's Parts. A plan with the Pairs shape must count its groups without
// building an index. It returns how many groups' compiled plans chose a
// different step order than the full plan, whose order the pass keeps.
func labelledMatchesCompiled(t *testing.T, poly Polynomial, cat MapCatalog, labels map[string][]int32, g int) (flips int) {
	t.Helper()
	byRel := make(map[*relation.Relation][]int32, len(labels))
	positions := make([]map[string][]int, g) // group → relation → sample rows
	subCats := make([]MapCatalog, g)
	for l := range subCats {
		positions[l] = map[string][]int{}
		subCats[l] = MapCatalog{}
	}
	for name, r := range cat {
		byRel[r] = labels[name]
		for row, l := range labels[name] {
			positions[l][name] = append(positions[l][name], row)
		}
		for l := range subCats {
			subCats[l][name] = r.Subset(name, positions[l][name])
		}
	}
	// val is a row weight with few exact sums: a SUM of it is rounded
	// in the order it is added.
	val := func(occ, row int) float64 { return 1 / float64(3+row+7*occ) }
	close := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }
	for ti := range poly.Terms {
		tm := &poly.Terms[ti]
		inst, err := BindInstances(tm, cat)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Prepare(tm, inst)
		if err != nil {
			t.Fatal(err)
		}
		lt, err := full.Label(g, byRel)
		if err != nil {
			t.Fatal(err)
		}
		f := func(_ int, rows []int) float64 {
			s := 0.0
			for occ, row := range rows {
				s += val(occ, row)
			}
			return s
		}
		for _, workers := range []int{1, 4} {
			counts := lt.Counts(workers)
			if full.Pairs() && workers == 1 && (lt.index[1].ix != nil || full.p.steps[1].index.ix != nil) {
				t.Errorf("term %d: counting a Pairs plan's groups built an index", ti)
			}
			sums := lt.Sums(workers, f)
			for l := 0; l < g; l++ {
				subInst, err := BindInstances(tm, subCats[l])
				if err != nil {
					t.Fatal(err)
				}
				want, err := Prepare(tm, subInst)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 && !slices.Equal(want.p.order, full.p.order) {
					flips++
				}
				if wc := want.Count(); math.Float64bits(counts[l]) != math.Float64bits(wc) {
					t.Errorf("term %d group %d workers %d: count %v, compiled %v", ti, l, workers, counts[l], wc)
				}
				if lt.parts(l) != want.Parts() {
					t.Errorf("term %d group %d: %d parts, compiled %d", ti, l, lt.parts(l), want.Parts())
				}
				toFull := func(occ, row int) int { return positions[l][tm.Occs[occ].RelName][row] }
				ws := 0.0
				parts := want.Parts()
				for p := 0; p < parts; p++ {
					part := 0.0
					want.EnumeratePart(p, parts, func(rows []int) bool {
						for occ, row := range rows {
							part += val(occ, toFull(occ, row))
						}
						return true
					})
					ws += part
				}
				if !close(sums[l], ws) {
					t.Errorf("term %d group %d workers %d: sum %v, compiled %v", ti, l, workers, sums[l], ws)
				}
				if !full.Pairs() {
					continue
				}
				for _, occ := range full.p.order[:2] {
					got := lt.PairTotals(&RowWeight{Occ: occ, W: func(row int) float64 { return val(occ, row) }})[l]
					wt := 0.0
					want.Enumerate(func(rows []int) bool {
						wt += val(occ, toFull(occ, rows[occ]))
						return true
					})
					if !close(got, wt) {
						t.Errorf("term %d group %d: weighted tally on occurrence %d %v, compiled %v", ti, l, occ, got, wt)
					}
				}
			}
		}
	}
	return flips
}

// sampleViews turns a catalog of base relations into one of sample views
// (a random ascending subset of each base) and labels every sample row
// with a random group among the first `used` of g. It draws the relations
// in name order, so equal seeds give equal views and labels.
func sampleViews(rng *rand.Rand, cat MapCatalog, g int) (MapCatalog, map[string][]int32) {
	views := MapCatalog{}
	labels := map[string][]int32{}
	used := 1 + rng.Intn(g)
	names := make([]string, 0, len(cat))
	for name := range cat {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := cat[name]
		var rows []int
		for i := 0; i < r.Len(); i++ {
			if rng.Intn(4) > 0 {
				rows = append(rows, i)
			}
		}
		views[name] = r.Subset(name, rows)
		lab := make([]int32, len(rows))
		for i := range lab {
			lab[i] = int32(rng.Intn(used))
		}
		labels[name] = lab
	}
	return views, labels
}

// TestSampleViewsReproducible draws sample views twice from each of
// several seeds: equal seeds must give views with the same rows and the
// same labels, so a seeded test that samples through sampleViews replays.
func TestSampleViewsReproducible(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		base, _ := randomCatalog(rand.New(rand.NewSource(seed)))
		draw := func() (MapCatalog, map[string][]int32) {
			return sampleViews(rand.New(rand.NewSource(seed)), base, 4)
		}
		views, labels := draw()
		for rep := 0; rep < 5; rep++ {
			again, againLabels := draw()
			if !maps.EqualFunc(labels, againLabels, slices.Equal[[]int32]) {
				t.Fatalf("seed %d: labels differ between two draws", seed)
			}
			for name, v := range views {
				w := again[name]
				if v.Len() != w.Len() {
					t.Fatalf("seed %d: %s has %d rows, then %d", seed, name, v.Len(), w.Len())
				}
				for i := 0; i < v.Len(); i++ {
					if !v.Row(i).Materialize().Equal(w.Row(i).Materialize()) {
						t.Fatalf("seed %d: %s row %d differs between two draws", seed, name, i)
					}
				}
			}
		}
	}
}

// TestQuickLabelledMatchesCompiled checks the labelled pass against plans
// compiled over each group's rows (labelledMatchesCompiled) on the random
// π-free expressions of the normalizer's generator — selections, joins
// (self-joins whenever both sides draw the same base), products (folded
// tails) and set operations (multi-term polynomials over one labelling),
// with labels that may leave whole groups empty — and on three fixtures:
// σ makes R the smaller side of R ⋈ S over the full sample while group 0
// holds more of R's candidates than of S's, so group 0's own plan binds S
// first where the pass binds R; and a join whose groups each hold over
// 4096 first-step candidates, so they count and sum in Parts() > 1
// chunks.
func TestQuickLabelledMatchesCompiled(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base, bases := randomCatalog(rng)
		e := randomExpr(rng, bases, 2)
		poly, err := Normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		g := 1 + rng.Intn(4)
		cat, labels := sampleViews(rng, base, g)
		labelledMatchesCompiled(t, poly, cat, labels, g)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}

	schema := relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindInt},
	)
	r := relation.New("R", schema)
	s := relation.New("S", schema)
	for i := 0; i < 60; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i % 7)), relation.Int(int64(i))})
		s.MustAppend(relation.Tuple{relation.Int(int64(i % 5)), relation.Int(int64(i))})
	}
	cat := MapCatalog{"R": r.Subset("R", rangeRows(0, 60)), "S": s.Subset("S", rangeRows(0, 60))}
	// σ b < 24 keeps R rows 0..23: 24 candidates against S's 60. Group 0
	// holds all 24 of R's candidates and 12 of S's rows, group 1 the rest
	// of both, and group 2 is empty.
	sel := Must(Select(BaseOf(r), Cmp{Col: "b", Op: LT, Val: relation.Int(24)}))
	labels := map[string][]int32{"R": make([]int32, 60), "S": make([]int32, 60)}
	for i := range labels["R"] {
		if i >= 24 {
			labels["R"][i] = 1
		}
		if i >= 12 {
			labels["S"][i] = 1
		}
	}
	flips := 0
	for _, e := range []*Expr{
		Must(Join(sel, BaseOf(s), []On{{Left: "a", Right: "a"}}, nil, "s_")),
		Must(Join(sel, BaseOf(r), []On{{Left: "a", Right: "a"}}, nil, "r_")),
		Must(Product(sel, BaseOf(s), "p_")),
		Must(Union(Must(Join(BaseOf(r), BaseOf(s), []On{{Left: "a", Right: "a"}}, nil, "u_")), Must(Product(BaseOf(r), BaseOf(s), "v_")))),
	} {
		poly, err := Normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		flips += labelledMatchesCompiled(t, poly, cat, labels, 3)
	}
	if flips == 0 {
		t.Error("no group's own plan flipped the join order; the fixture no longer covers a pass in another order")
	}

	big := relation.New("R", schema)
	bigS := relation.New("S", schema)
	for i := 0; i < 10000; i++ {
		big.MustAppend(relation.Tuple{relation.Int(int64(i % 3001)), relation.Int(int64(i))})
	}
	for i := 0; i < 9000; i++ {
		bigS.MustAppend(relation.Tuple{relation.Int(int64(i % 2999)), relation.Int(int64(i))})
	}
	cat = MapCatalog{"R": big.Subset("R", rangeRows(0, 10000)), "S": bigS.Subset("S", rangeRows(0, 9000))}
	rng := rand.New(rand.NewSource(5))
	labels = map[string][]int32{"R": make([]int32, 10000), "S": make([]int32, 9000)}
	for _, lab := range labels {
		for i := range lab {
			lab[i] = int32(rng.Intn(2))
		}
	}
	poly, err := Normalize(Must(Join(BaseOf(bigS), BaseOf(big), []On{{Left: "a", Right: "a"}}, nil, "r_")))
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
	lt, err := pt.Label(2, map[*relation.Relation][]int32{cat["R"]: labels["R"], cat["S"]: labels["S"]})
	if err != nil {
		t.Fatal(err)
	}
	if lt.parts(0) == 1 || lt.parts(1) == 1 {
		t.Errorf("groups of %d first-step candidates evaluate in one part; the fixture no longer covers partitioning", len(lt.group(pt.p.order[0], 0)))
	}
	labelledMatchesCompiled(t, poly, cat, labels, 2)
}

func rangeRows(lo, hi int) []int {
	rows := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, i)
	}
	return rows
}
