package algebra

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"relest/internal/relation"
)

// splitMatchesSubsets checks PreparedTerm.Split against its definition for
// every term of the polynomial: over the sample views in cat, labelled by
// labels[name], replicate l's derived plan must behave exactly like a plan
// compiled over the group's sub-instances (Subset views of the rows
// labelled l, ascending) — the same Parts, the same Count bits, and per
// part the same enumeration sequence once the sub-instance rows are mapped
// back through the subset positions. It returns how many replicate plans
// chose a different step order than their full-sample plan.
func splitMatchesSubsets(t *testing.T, poly Polynomial, cat MapCatalog, labels map[string][]int32, g int) (flips int) {
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
	part := NewPartition(g, byRel)
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
		derived := full.Split(part)
		if len(derived) != g {
			t.Fatalf("term %d: Split returned %d plans, want %d", ti, len(derived), g)
		}
		for l, got := range derived {
			subInst, err := BindInstances(tm, subCats[l])
			if err != nil {
				t.Fatal(err)
			}
			want, err := Prepare(tm, subInst)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.p.order, full.p.order) {
				flips++
			}
			if !slices.Equal(got.p.order, want.p.order) {
				t.Errorf("term %d group %d: order %v, compiled %v", ti, l, got.p.order, want.p.order)
			}
			if gc, wc := got.Count(), want.Count(); math.Float64bits(gc) != math.Float64bits(wc) {
				t.Errorf("term %d group %d: Count %v, compiled %v", ti, l, gc, wc)
			}
			if got.Parts() != want.Parts() || got.p.enumUpto != want.p.enumUpto {
				t.Errorf("term %d group %d: Parts/enumerated steps %d/%d, compiled %d/%d",
					ti, l, got.Parts(), got.p.enumUpto, want.Parts(), want.p.enumUpto)
				continue
			}
			toFull := func(occ, row int) int { return positions[l][tm.Occs[occ].RelName][row] }
			for occ := range tm.Occs {
				wc := want.p.cand[occ]
				gc := got.p.cand[occ]
				if len(gc) != len(wc) {
					t.Errorf("term %d group %d occ %d: %d candidates, compiled %d", ti, l, occ, len(gc), len(wc))
					continue
				}
				for i, row := range wc {
					if gc[i] != toFull(occ, row) {
						t.Errorf("term %d group %d occ %d: candidates differ at %d", ti, l, occ, i)
						break
					}
				}
			}
			parts := got.Parts()
			for p := 0; p < parts; p++ {
				var gs, ws []int
				got.EnumeratePart(p, parts, func(rows []int) bool {
					gs = append(gs, rows...)
					return true
				})
				want.EnumeratePart(p, parts, func(rows []int) bool {
					for occ, row := range rows {
						ws = append(ws, toFull(occ, row))
					}
					return true
				})
				if !slices.Equal(gs, ws) {
					t.Errorf("term %d group %d part %d: enumeration differs from the compiled plan's", ti, l, p)
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

// TestQuickSplitMatchesCompiled checks Split ≡ compile-over-subsets on the
// random π-free expressions of the normalizer's generator: selections,
// joins (self-joins whenever both sides draw the same base), products
// (folded tails) and set operations (multi-term polynomials sharing one
// Partition), with labels that may leave whole groups empty.
func TestQuickSplitMatchesCompiled(t *testing.T) {
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
		splitMatchesSubsets(t, poly, cat, labels, g)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSplitOrderFlips pins the case a derived plan cannot take from its
// full plan: a selective σ makes R the smaller side of R ⋈ S over the full
// sample, but the labels give group 0 more of R's candidates than of S's,
// so group 0 binds S first and probes an index on R no full plan holds.
// A self-join R ⋈ R with σ on one side and a product with a folded tail
// share the Partition, and group 2 is empty.
func TestSplitOrderFlips(t *testing.T) {
	schema := func() *relation.Schema {
		return relation.MustSchema(
			relation.Column{Name: "a", Kind: relation.KindInt},
			relation.Column{Name: "b", Kind: relation.KindInt},
		)
	}
	r := relation.New("R", schema())
	s := relation.New("S", schema())
	for i := 0; i < 60; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i % 7)), relation.Int(int64(i))})
		s.MustAppend(relation.Tuple{relation.Int(int64(i % 5)), relation.Int(int64(i))})
	}
	cat := MapCatalog{"R": r.Subset("R", rangeRows(0, 60)), "S": s.Subset("S", rangeRows(0, 60))}
	// σ b < 24 keeps R rows 0..23: 24 candidates against S's 60.
	sel := Must(Select(BaseOf(r), Cmp{Col: "b", Op: LT, Val: relation.Int(24)}))
	// Group 0: all 24 of R's candidates and 12 of S's rows; group 1: the
	// rest of both. Group 2 is empty.
	labels := map[string][]int32{"R": make([]int32, 60), "S": make([]int32, 60)}
	for i := range labels["R"] {
		if i >= 24 {
			labels["R"][i] = 1
		}
		if i >= 12 {
			labels["S"][i] = 1
		}
	}
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
		splitMatchesSubsets(t, poly, cat, labels, 3)
	}
	join, err := Normalize(Must(Join(sel, BaseOf(s), []On{{Left: "a", Right: "a"}}, nil, "s_")))
	if err != nil {
		t.Fatal(err)
	}
	if flips := splitMatchesSubsets(t, join, cat, labels, 3); flips == 0 {
		t.Error("no replicate flipped the join order; the fixture no longer covers the built-index path")
	}
}

// TestSplitPartitionedTerm covers a replicate large enough to evaluate in
// partitions (Parts > 1), over whole-view candidate lists whose index is
// the view's shared one.
func TestSplitPartitionedTerm(t *testing.T) {
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
	cat := MapCatalog{"R": r.Subset("R", rangeRows(0, 10000)), "S": s.Subset("S", rangeRows(0, 9000))}
	rng := rand.New(rand.NewSource(5))
	labels := map[string][]int32{"R": make([]int32, 10000), "S": make([]int32, 9000)}
	for _, lab := range labels {
		for i := range lab {
			lab[i] = int32(rng.Intn(2))
		}
	}
	poly, err := Normalize(Must(Join(BaseOf(s), BaseOf(r), []On{{Left: "a", Right: "a"}}, nil, "r_")))
	if err != nil {
		t.Fatal(err)
	}
	splitMatchesSubsets(t, poly, cat, labels, 2)
	inst, err := BindInstances(&poly.Terms[0], cat)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Prepare(&poly.Terms[0], inst)
	if err != nil {
		t.Fatal(err)
	}
	part := NewPartition(2, map[*relation.Relation][]int32{cat["R"]: labels["R"], cat["S"]: labels["S"]})
	for _, rp := range pt.Split(part) {
		if rp.Parts() == 1 {
			t.Errorf("replicate of %d first-step candidates evaluates in one part; the fixture no longer covers partitioning", len(rp.p.cand[rp.p.order[0]]))
		}
	}
}

func rangeRows(lo, hi int) []int {
	rows := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, i)
	}
	return rows
}

// TestSplitPairsBuildsNoIndex checks that a split-sample pass over a plan
// with the Pairs shape reads only its replicates' candidate lists and
// code vectors: their pair tallies and moment passes leave the Partition
// with no split index and the full plan with no built one. Replicates
// that then enumerate concurrently split the index once for all of them
// and count what their tallies count.
func TestSplitPairsBuildsNoIndex(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindInt},
	)
	r := relation.New("R", schema)
	s := relation.New("S", schema)
	for i := 0; i < 200; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i % 13)), relation.Int(int64(i))})
		s.MustAppend(relation.Tuple{relation.Int(int64(i % 11)), relation.Int(int64(i))})
	}
	cat := MapCatalog{"R": r.Subset("R", rangeRows(0, 200)), "S": s.Subset("S", rangeRows(0, 150))}
	rng := rand.New(rand.NewSource(7))
	labels := map[*relation.Relation][]int32{cat["R"]: make([]int32, 200), cat["S"]: make([]int32, 150)}
	for _, lab := range labels {
		for i := range lab {
			lab[i] = int32(rng.Intn(3))
		}
	}
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
	part := NewPartition(3, labels)
	reps := pt.Split(part)
	for l, rp := range reps {
		if !rp.Pairs() {
			t.Fatalf("replicate %d does not have the Pairs shape", l)
		}
		rp.PairMoments(nil)
		rp.PairMoments(&RowWeight{Occ: rp.p.steps[0].occ, W: func(row int) float64 { return float64(row) }})
		rp.Marginals()
	}
	if len(part.splits) != 0 {
		t.Errorf("tallying the replicates split %d index(es)", len(part.splits))
	}
	if ix := pt.p.steps[1].index; ix.ix != nil {
		t.Error("tallying the replicates built the full plan's index")
	}
	// The replicates enumerate at once, as a split-sample pass's workers
	// do: they split the index through the shared Partition, once.
	got := make([]float64, 2*len(reps))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp := reps[i%len(reps)]
			if i < len(reps) {
				got[i] = rp.Count()
				return
			}
			rp.Enumerate(func([]int) bool { got[i]++; return true })
		}()
	}
	wg.Wait()
	for i, c := range got {
		if want := reps[i%len(reps)].Marginals().Total; c != want {
			t.Errorf("replicate %d counts %v by enumeration, tallies %v", i%len(reps), c, want)
		}
	}
	if len(part.splits) != 1 {
		t.Errorf("enumerating the replicates split %d index(es), want 1", len(part.splits))
	}
}
