package algebra

import (
	"sort"
	"sync"
	"testing"

	"relest/internal/obs"
	"relest/internal/relation"
)

// joinTermFixture returns the single term of R ⋈ S on a, with its bound
// instances.
func joinTermFixture(t *testing.T) (*Term, Instances) {
	t.Helper()
	cat, r, s, _ := fixtures()
	j, err := Join(r, s, []On{{Left: "a", Right: "a"}}, nil, "S")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Normalize(j)
	if err != nil {
		t.Fatal(err)
	}
	term := &p.Terms[0]
	inst, err := BindInstances(term, cat)
	if err != nil {
		t.Fatal(err)
	}
	return term, inst
}

func TestPreparedCountMatchesTerm(t *testing.T) {
	term, inst := joinTermFixture(t)
	want, err := term.CountAssignments(inst)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Prepare(term, inst)
	if err != nil {
		t.Fatal(err)
	}
	if got := pt.Count(); got != want {
		t.Errorf("Prepared.Count() = %v, CountAssignments = %v", got, want)
	}
	// Counting twice from the same plan must not disturb it.
	if got := pt.Count(); got != want {
		t.Errorf("second Count() = %v, want %v", got, want)
	}
	if pt.Term() != term {
		t.Error("Term() does not round-trip")
	}
}

// TestCountPartsPartitionExactly checks that for every parts choice, the
// per-part counts add up to the full count and the per-part enumerations
// visit each assignment exactly once.
func TestCountPartsPartitionExactly(t *testing.T) {
	term, inst := joinTermFixture(t)
	pt, err := Prepare(term, inst)
	if err != nil {
		t.Fatal(err)
	}
	want := pt.Count()
	var full [][]int
	pt.Enumerate(func(rows []int) bool {
		full = append(full, append([]int(nil), rows...))
		return true
	})
	if len(full) != int(want) {
		t.Fatalf("enumerated %d assignments, count says %v", len(full), want)
	}
	for _, parts := range []int{1, 2, 3, 7} {
		sum := 0.0
		var seen [][]int
		for p := 0; p < parts; p++ {
			sum += pt.CountPart(p, parts)
			pt.EnumeratePart(p, parts, func(rows []int) bool {
				seen = append(seen, append([]int(nil), rows...))
				return true
			})
		}
		if sum != want {
			t.Errorf("parts=%d: Σ CountPart = %v, want %v", parts, sum, want)
		}
		if len(seen) != len(full) {
			t.Fatalf("parts=%d: enumerated %d assignments, want %d", parts, len(seen), len(full))
		}
		sortAssignments(seen)
		sorted := append([][]int(nil), full...)
		sortAssignments(sorted)
		for i := range sorted {
			for j := range sorted[i] {
				if seen[i][j] != sorted[i][j] {
					t.Fatalf("parts=%d: assignment sets differ at %d: %v vs %v", parts, i, seen[i], sorted[i])
				}
			}
		}
	}
}

func sortAssignments(a [][]int) {
	sort.Slice(a, func(i, j int) bool {
		for k := range a[i] {
			if a[i][k] != a[j][k] {
				return a[i][k] < a[j][k]
			}
		}
		return false
	})
}

func TestPreparedFoldedTail(t *testing.T) {
	cat, r, s, _ := fixtures()
	// Pure product: the unconstrained tail is folded into a multiplier.
	p, err := Normalize(Must(Product(r, s, "S")))
	if err != nil {
		t.Fatal(err)
	}
	term := &p.Terms[0]
	inst, err := BindInstances(term, cat)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Prepare(term, inst)
	if err != nil {
		t.Fatal(err)
	}
	if pt.p.enumUpto == len(pt.p.steps) {
		t.Error("product term should fold its tail")
	}
	if got := pt.Count(); got != 12 {
		t.Errorf("folded count %v, want 12", got)
	}
	// A join term enumerates every occurrence.
	jt, jinst := joinTermFixture(t)
	jpt, err := Prepare(jt, jinst)
	if err != nil {
		t.Fatal(err)
	}
	if jpt.p.enumUpto < len(jpt.p.steps) {
		t.Error("join term should not fold")
	}
}

// TestPlanCacheReusesAndInvalidates pins the cache key: the same (term,
// instances) pair hits, and swapping an instance for another relation
// object — the only way a plan goes stale — misses.
func TestPlanCacheReusesAndInvalidates(t *testing.T) {
	term, inst := joinTermFixture(t)
	c := NewPlanCache()
	pt1, err := c.Prepare(term, inst)
	if err != nil {
		t.Fatal(err)
	}
	pt2, err := c.Prepare(term, inst)
	if err != nil {
		t.Fatal(err)
	}
	if pt1 != pt2 {
		t.Error("same (term, instances) should hit the cache")
	}
	if c.Len() != 1 {
		t.Errorf("cache Len = %d, want 1", c.Len())
	}
	// A different instance identity (same contents) is a different plan.
	inst2 := append(Instances(nil), inst...)
	inst2[0] = inst[0].Clone(inst[0].Name())
	pt3, err := c.Prepare(term, inst2)
	if err != nil {
		t.Fatal(err)
	}
	if pt3 == pt1 {
		t.Error("cloned instance must not share the cached plan")
	}
	if c.Len() != 2 {
		t.Errorf("cache Len = %d, want 2", c.Len())
	}
}

// TestPreparedTermConcurrentUse hammers one shared plan from many
// goroutines; run under -race this verifies plans are read-only after
// compilation and all mutable state is per-evaluation.
func TestPreparedTermConcurrentUse(t *testing.T) {
	term, inst := joinTermFixture(t)
	pt, err := Prepare(term, inst)
	if err != nil {
		t.Fatal(err)
	}
	want := pt.Count()
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := pt.Count(); got != want {
					errs <- "Count mismatch"
					return
				}
				n := 0
				pt.Enumerate(func([]int) bool { n++; return true })
				if n != int(want) {
					errs <- "Enumerate mismatch"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestPlanCacheKeyStructural feeds the cache (term, instances) pairs that
// are prefixes, repetitions or permutations of one another: each pair
// compiles once, on its first Prepare, and every later Prepare of it hits.
func TestPlanCacheKeyStructural(t *testing.T) {
	schema := relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt})
	t1, t2 := &Term{}, &Term{}
	r1, r2 := relation.New("R", schema), relation.New("R", schema)
	pairs := []struct {
		name string
		t    *Term
		inst Instances
	}{
		{"t1/none", t1, nil},
		{"t1/r1", t1, Instances{r1}},
		{"t1/r2", t1, Instances{r2}},
		{"t1/r1r1", t1, Instances{r1, r1}},
		{"t1/r1r2", t1, Instances{r1, r2}},
		{"t1/r2r1", t1, Instances{r2, r1}},
		{"t2/r1", t2, Instances{r1}},
		{"t2/r1r2", t2, Instances{r1, r2}},
	}
	rec := obs.NewCollector()
	c := NewPlanCacheRec(rec, relation.NewKeyDomain())
	counts := func() (built, hit float64) {
		m := rec.Metrics()
		return m.Counter(mPlanBuilt).Value(), m.Counter(mPlanHit).Value()
	}
	for round := 0; round < 3; round++ {
		for i, p := range pairs {
			_, _ = c.Prepare(p.t, p.inst) // most pairs do not compile (arity); errors are cached like plans
			built, hit := counts()
			wantBuilt, wantHit := float64(i+1), float64(round*len(pairs))
			if round > 0 {
				wantBuilt, wantHit = float64(len(pairs)), float64((round-1)*len(pairs)+i+1)
			}
			if built != wantBuilt || hit != wantHit {
				t.Fatalf("round %d, %s: %v built and %v hit, want %v and %v", round, p.name, built, hit, wantBuilt, wantHit)
			}
		}
	}
	if c.Len() != len(pairs) {
		t.Errorf("cache Len = %d, want %d", c.Len(), len(pairs))
	}
}

// TestPrepareSelectAllocsFlat pins the σ scan's allocation bound: compiling
// a selection term allocates the candidate list once and filters it in
// place — typed kernels for the Cmps under the And, the wrapped row
// closure for the Or — so the count does not grow with the row count.
func TestPrepareSelectAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		r := relation.New("R", relation.MustSchema(
			relation.Column{Name: "a", Kind: relation.KindInt},
			relation.Column{Name: "s", Kind: relation.KindString},
		))
		for i := 0; i < n; i++ {
			r.MustAppend(relation.Tuple{relation.Int(int64(i % 1000)), relation.Str(string(rune('a' + i%7)))})
		}
		e, err := Select(Base("R", r.Schema()), And{
			Cmp{Col: "a", Op: LT, Val: relation.Int(600)},
			Cmp{Col: "s", Op: GE, Val: relation.Str("b")},
			Or{Cmp{Col: "a", Op: GT, Val: relation.Int(10)}, Cmp{Col: "s", Op: EQ, Val: relation.Str("a")}},
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		term := &p.Terms[0]
		inst := Instances{r}
		pt, err := Prepare(term, inst)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(pt.p.cand[0]); got == 0 || got == n {
			t.Fatalf("%d rows: σ keeps %d, want a proper subset", n, got)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Prepare(term, inst); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1_000), allocs(10_000)
	if large > small || large > 16 {
		t.Errorf("Prepare of a σ term allocates %.0f times over 1 000 rows and %.0f over 10 000, want equal and <= 16", small, large)
	}
}
