package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestWithoutReplacementBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ N, n int }{{10, 0}, {10, 3}, {10, 10}, {100, 99}, {1000, 5}} {
		s := WithoutReplacement(rng, c.N, c.n)
		if len(s) != c.n {
			t.Fatalf("N=%d n=%d: got %d indices", c.N, c.n, len(s))
		}
		if !sort.IntsAreSorted(s) {
			t.Errorf("N=%d n=%d: not sorted", c.N, c.n)
		}
		seen := map[int]bool{}
		for _, i := range s {
			if i < 0 || i >= c.N {
				t.Errorf("index %d outside [0,%d)", i, c.N)
			}
			if seen[i] {
				t.Errorf("duplicate index %d", i)
			}
			seen[i] = true
		}
	}
}

func TestWithoutReplacementPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ N, n int }{{5, 6}, {5, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithoutReplacement(%d, %d) should panic", c.N, c.n)
				}
			}()
			WithoutReplacement(rng, c.N, c.n)
		}()
	}
}

// subsetKey canonicalizes a sample for frequency counting.
func subsetKey(s []int) string {
	return fmt.Sprint(s)
}

func TestWithoutReplacementUniformOverSubsets(t *testing.T) {
	// N=5, n=2: all C(5,2)=10 subsets must be equally likely. This also
	// exercises both the Floyd path (n*3 < N is false here: 6 > 5, so the
	// Fisher–Yates path) — run a second config hitting Floyd's path.
	configs := []struct{ N, n int }{{5, 2}, {20, 2}}
	for _, cfg := range configs {
		rng := rand.New(rand.NewSource(7))
		const trials = 40000
		counts := map[string]int{}
		for i := 0; i < trials; i++ {
			counts[subsetKey(WithoutReplacement(rng, cfg.N, cfg.n))]++
		}
		nsub := choose(cfg.N, cfg.n)
		want := float64(trials) / float64(nsub)
		sigma := math.Sqrt(float64(trials) * (1 / float64(nsub)) * (1 - 1/float64(nsub)))
		if len(counts) != nsub {
			t.Fatalf("N=%d n=%d: saw %d subsets, want %d", cfg.N, cfg.n, len(counts), nsub)
		}
		for k, c := range counts {
			if math.Abs(float64(c)-want) > 6*sigma {
				t.Errorf("N=%d n=%d subset %s: count %d, want %.0f±%.0f", cfg.N, cfg.n, k, c, want, 6*sigma)
			}
		}
	}
}

func TestExtendDistribution(t *testing.T) {
	// Sample 1 of 5 then extend by 1: the combined pair must be uniform
	// over all C(5,2) subsets, exactly as a fresh SRSWOR of size 2.
	rng := rand.New(rand.NewSource(11))
	const trials = 40000
	counts := map[string]int{}
	for i := 0; i < trials; i++ {
		s := WithoutReplacement(rng, 5, 1)
		s = extend(rng, 5, s, 1)
		counts[subsetKey(s)]++
	}
	want := float64(trials) / 10
	sigma := math.Sqrt(float64(trials) * 0.1 * 0.9)
	if len(counts) != 10 {
		t.Fatalf("saw %d subsets, want 10", len(counts))
	}
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 6*sigma {
			t.Errorf("subset %s: count %d, want %.0f±%.0f", k, c, want, 6*sigma)
		}
	}
}

func TestExtendDensePath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := WithoutReplacement(rng, 10, 4)
	s = extend(rng, 10, s, 5) // (4+5)*2 >= 10 → complement path
	if len(s) != 9 || !sort.IntsAreSorted(s) {
		t.Fatalf("extend dense: %v", s)
	}
	seen := map[int]bool{}
	for _, i := range s {
		if seen[i] {
			t.Fatalf("duplicate in %v", s)
		}
		seen[i] = true
	}
	// m = 0 round-trips.
	s2 := extend(rng, 10, s, 0)
	if len(s2) != len(s) {
		t.Error("extend by 0 changed size")
	}
}

// extend is one Draw round over a sample given as a list: the combined
// sample, sorted.
func extend(rng *rand.Rand, N int, existing []int, m int) []int {
	out := slices.Clone(existing)
	for _, i := range NewDraw(N, existing).Next(rng, m) {
		out = append(out, int(i))
	}
	sort.Ints(out)
	return out
}

// withoutReplacementByMap is WithoutReplacement over a map: Floyd's
// algorithm, or a partial shuffle of [0, N), the result sorted.
func withoutReplacementByMap(rng *rand.Rand, N, n int) []int {
	var out []int
	if n*3 < N {
		chosen := make(map[int]struct{}, n)
		for j := N - n; j < N; j++ {
			t := rng.Intn(j + 1)
			if _, taken := chosen[t]; taken {
				chosen[j] = struct{}{}
			} else {
				chosen[t] = struct{}{}
			}
		}
		for i := range chosen {
			out = append(out, i)
		}
	} else {
		perm := make([]int, N)
		for i := range perm {
			perm[i] = i
		}
		for i := 0; i < n; i++ {
			j := i + rng.Intn(N-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		out = perm[:n]
	}
	sort.Ints(out)
	return out
}

// TestWithoutReplacementMatchesMapReference pins WithoutReplacement to the
// map-based draw it replaced: the same sample and the same rng draws
// consumed, in both branches and at the edges.
func TestWithoutReplacementMatchesMapReference(t *testing.T) {
	for _, c := range []struct{ N, n int }{
		{0, 0}, {1, 0}, {1, 1}, {10, 3}, {10, 4}, {64, 21}, {65, 22}, {1000, 5}, {1000, 333}, {1000, 334}, {1000, 1000}, {100000, 2000},
	} {
		got, ref := rand.New(rand.NewSource(int64(c.N+c.n))), rand.New(rand.NewSource(int64(c.N+c.n)))
		out, want := WithoutReplacement(got, c.N, c.n), withoutReplacementByMap(ref, c.N, c.n)
		if len(out) != len(want) || (len(want) > 0 && !slices.Equal(out, want)) {
			t.Errorf("N=%d n=%d: %v, reference %v", c.N, c.n, out, want)
		}
		if got.Int63() != ref.Int63() {
			t.Errorf("N=%d n=%d: rng diverged", c.N, c.n)
		}
	}
}

// extendByMap is a Draw's first round over a map: rejection while the
// grown sample stays under half of N; otherwise the ascending complement
// listed and partially shuffled — entirely at the census, with no rng
// call — the combined sample sorted at the end.
func extendByMap(rng *rand.Rand, N int, existing []int, m int) []int {
	n := len(existing)
	taken := make(map[int]struct{}, n+m)
	for _, i := range existing {
		taken[i] = struct{}{}
	}
	if len(taken) != n {
		panic("duplicate")
	}
	if m < 0 || n+m > N {
		panic("out of range")
	}
	if m > 0 && (n+m)*2 < N {
		for added := 0; added < m; {
			c := rng.Intn(N)
			if _, dup := taken[c]; dup {
				continue
			}
			taken[c] = struct{}{}
			added++
		}
	} else if m > 0 {
		complement := make([]int, 0, N-n)
		for i := 0; i < N; i++ {
			if _, dup := taken[i]; !dup {
				complement = append(complement, i)
			}
		}
		if m < len(complement) {
			for i := 0; i < m; i++ {
				j := i + rng.Intn(len(complement)-i)
				complement[i], complement[j] = complement[j], complement[i]
			}
		}
		for _, c := range complement[:m] {
			taken[c] = struct{}{}
		}
	}
	out := make([]int, 0, n+m)
	for i := range taken {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// TestExtendMatchesMapReference pins a Draw's first round to the
// map-based algorithm: the same set from the same rng, and the same rng
// draws consumed (the next draw agrees), over the rejection branch, the
// shuffle of the complement and the census, unsorted input, m = 0 and the
// panics.
func TestExtendMatchesMapReference(t *testing.T) {
	cases := []struct {
		N, n, m int
		seed    int64
	}{
		{1, 0, 1, 1},
		{10, 0, 0, 2},
		{10, 3, 0, 3},   // m = 0
		{10, 2, 2, 4},   // (n+m)*2 < N: rejection
		{10, 2, 3, 5},   // (n+m)*2 = N: complement
		{10, 4, 5, 6},   // complement
		{10, 0, 10, 7},  // census from an empty sample
		{10, 4, 6, 16},  // census
		{64, 10, 21, 8}, // rejection, one full bitset word
		{65, 30, 35, 9}, // census, a partial last word
		{65, 30, 34, 17},
		{1000, 20, 100, 10},
		{1000, 300, 400, 11},
		{100000, 1000, 500, 12},
		{100000, 40000, 20000, 13},
		{1000, 480, 40, 14},
		{1000, 400, 500, 15},
	}
	for _, c := range cases {
		src := rand.New(rand.NewSource(c.seed))
		existing := WithoutReplacement(src, c.N, c.n)
		Shuffle(src, existing) // a draw must not rely on sorted input
		got, gotRNG := rand.New(rand.NewSource(c.seed)), rand.New(rand.NewSource(c.seed))
		want := extendByMap(gotRNG, c.N, append([]int(nil), existing...), c.m)
		if out := extend(got, c.N, existing, c.m); !slices.Equal(out, want) {
			t.Errorf("N=%d n=%d m=%d seed=%d: Draw = %v, reference %v", c.N, c.n, c.m, c.seed, out, want)
		}
		if a, b := got.Int63(), gotRNG.Int63(); a != b {
			t.Errorf("N=%d n=%d m=%d seed=%d: rng diverged after the draw", c.N, c.n, c.m, c.seed)
		}
	}
	panics := []struct {
		name     string
		N        int
		existing []int
		m        int
	}{
		{"duplicate input", 10, []int{3, 1, 3}, 2},
		{"duplicate input, complement", 5, []int{1, 1}, 1},
		{"over-extension", 5, []int{0, 1}, 4},
		{"negative m", 5, []int{0}, -1},
	}
	for _, c := range panics {
		if recovered(func() { extend(rand.New(rand.NewSource(1)), c.N, c.existing, c.m) }) == nil {
			t.Errorf("%s: no panic", c.name)
		}
	}
}

// recovered runs f and returns what it panicked with (nil if it did not).
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

func TestExtendPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("over-extension should panic")
			}
		}()
		extend(rng, 5, []int{0, 1}, 4)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate existing sample should panic")
			}
		}()
		extend(rng, 5, []int{1, 1}, 1)
	}()
}

func TestPairedReservoirInsertOnlyUniform(t *testing.T) {
	// Without deletions, the paired reservoir must behave exactly like a
	// plain reservoir: inclusion probability k/T for every item.
	const T, k, trials = 60, 6, 20000
	counts := make([]int, T)
	rng := rand.New(rand.NewSource(17))
	for tr := 0; tr < trials; tr++ {
		p := NewPairedReservoir[int](rng, k, func(i int) string { return fmt.Sprint(i) })
		for i := 0; i < T; i++ {
			p.Insert(i)
		}
		for _, it := range p.Items() {
			counts[it]++
		}
	}
	pr := float64(k) / float64(T)
	want := pr * trials
	sigma := math.Sqrt(trials * pr * (1 - pr))
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*sigma {
			t.Errorf("item %d: %d, want %.0f±%.0f", i, c, want, 6*sigma)
		}
	}
}

func TestPairedReservoirDeletionsUniform(t *testing.T) {
	// Insert 0..29, delete 0..9, insert 30..39. The surviving population is
	// {10..39} (30 items); each must be included with probability k/30.
	const k, trials = 5, 30000
	counts := map[int]int{}
	rng := rand.New(rand.NewSource(23))
	for tr := 0; tr < trials; tr++ {
		p := NewPairedReservoir[int](rng, k, func(i int) string { return fmt.Sprint(i) })
		for i := 0; i < 30; i++ {
			p.Insert(i)
		}
		for i := 0; i < 10; i++ {
			p.Delete(i)
		}
		for i := 30; i < 40; i++ {
			p.Insert(i)
		}
		if p.PopulationSize() != 30 {
			t.Fatalf("population %d", p.PopulationSize())
		}
		for _, it := range p.Items() {
			if it < 10 {
				t.Fatalf("deleted item %d still sampled", it)
			}
			counts[it]++
		}
	}
	pr := float64(k) / 30
	want := pr * trials
	sigma := math.Sqrt(trials * pr * (1 - pr))
	for i := 10; i < 40; i++ {
		if math.Abs(float64(counts[i])-want) > 6*sigma {
			t.Errorf("item %d: %d, want %.0f±%.0f", i, counts[i], want, 6*sigma)
		}
	}
}

func TestPairedReservoirDeleteUnknown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewPairedReservoir[int](rng, 3, func(i int) string { return fmt.Sprint(i) })
	if p.Delete(7) {
		t.Error("delete from empty population should report false")
	}
	p.Insert(1)
	p.Insert(2)
	// Deleting an item not in the sample is legal (it may simply not have
	// been sampled); population shrinks regardless.
	p.Delete(1)
	p.Delete(2)
	if p.PopulationSize() != 0 {
		t.Errorf("population %d", p.PopulationSize())
	}
	if p.SampleSize() != 0 {
		t.Errorf("sample %d after deleting everything", p.SampleSize())
	}
}

func TestSplitGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	label := SplitLabels(rng, 20, 4, nil)
	if len(label) != 20 {
		t.Fatal("label count")
	}
	sizes := make([]int, 4)
	for _, l := range label {
		if l < 0 || l >= 4 {
			t.Fatalf("label %d outside [0, 4)", l)
		}
		sizes[l]++
	}
	for l, n := range sizes {
		if n != 5 {
			t.Errorf("group %d size %d", l, n)
		}
	}
}

// splitGroupsRef is the sort-based grouping SplitLabels replaced, verbatim:
// shuffle a copy, deal round-robin, sort every group.
func splitGroupsRef(rng *rand.Rand, sample []int, g int) [][]int {
	if g < 1 {
		panic(fmt.Sprintf("sampling: SplitGroups with g=%d", g))
	}
	shuffled := append([]int(nil), sample...)
	Shuffle(rng, shuffled)
	groups := make([][]int, g)
	for i, x := range shuffled {
		groups[i%g] = append(groups[i%g], x)
	}
	for i := range groups {
		sort.Ints(groups[i])
	}
	return groups
}

// TestSplitLabelsMatchesSortedGroups pins SplitLabels to the grouping it
// replaced, draw for draw: over (m, g, seed) the labels name exactly the
// reference's groups — per stratum, in stratum order, for stratified
// samples, whose per-group unions the old code sorted — including g = 1,
// g > m (empty groups), and the rng state after the split.
func TestSplitLabelsMatchesSortedGroups(t *testing.T) {
	groupsOf := func(label []int32, g int) [][]int {
		groups := make([][]int, g)
		for u, l := range label {
			groups[l] = append(groups[l], u)
		}
		return groups
	}
	same := func(a, b [][]int) bool {
		for i := range a {
			if len(a[i]) != len(b[i]) || (len(a[i]) > 0 && !slices.Equal(a[i], b[i])) {
				return false
			}
		}
		return len(a) == len(b)
	}
	for _, m := range []int{0, 1, 2, 7, 16, 50} {
		for _, g := range []int{1, 2, 3, 8, 13, 60} {
			for seed := int64(1); seed <= 4; seed++ {
				// Plain: units 0..m-1.
				all := make([]int, m)
				for i := range all {
					all[i] = i
				}
				ref, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				want := splitGroupsRef(ref, all, g)
				if label := SplitLabels(got, m, g, nil); !same(groupsOf(label, g), want) {
					t.Errorf("m=%d g=%d seed=%d: labels %v, want groups %v", m, g, seed, label, want)
				}
				if ref.Int63() != got.Int63() {
					t.Errorf("m=%d g=%d seed=%d: rng state differs after the split", m, g, seed)
				}
				// Stratified: units dealt to strata by a fixed interleaving.
				strata := make([][]int, 3)
				for u := 0; u < m; u++ {
					strata[(u*u+u/2)%3] = append(strata[(u*u+u/2)%3], u)
				}
				ref, got = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				want = make([][]int, g)
				for _, units := range strata {
					for gi, part := range splitGroupsRef(ref, units, g) {
						want[gi] = append(want[gi], part...)
					}
				}
				for i := range want {
					sort.Ints(want[i])
				}
				if label := SplitLabels(got, m, g, strata); !same(groupsOf(label, g), want) {
					t.Errorf("stratified m=%d g=%d seed=%d: labels %v, want groups %v", m, g, seed, label, want)
				}
				if ref.Int63() != got.Int63() {
					t.Errorf("stratified m=%d g=%d seed=%d: rng state differs after the split", m, g, seed)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SplitLabels with g=0 did not panic")
		}
	}()
	SplitLabels(rand.New(rand.NewSource(1)), 4, 0, nil)
}

func TestProportional(t *testing.T) {
	cases := []struct {
		sizes []int
		n     int
		want  []int
	}{
		{[]int{50, 30, 20}, 10, []int{5, 3, 2}},
		{[]int{1, 1, 1}, 2, nil},        // sums to 2, each stratum ≤ 1
		{[]int{100, 1}, 50, nil},        // cap respected
		{[]int{0, 0}, 5, []int{0, 0}},   // empty population
		{[]int{3, 3}, 100, []int{3, 3}}, // n > total clamps
	}
	for _, c := range cases {
		got := Proportional(c.sizes, c.n)
		sum, total := 0, 0
		for i, g := range got {
			if g < 0 || g > c.sizes[i] {
				t.Errorf("Proportional(%v, %d) = %v: stratum cap violated", c.sizes, c.n, got)
			}
			sum += g
			total += c.sizes[i]
		}
		wantSum := c.n
		if wantSum > total {
			wantSum = total
		}
		if sum != wantSum {
			t.Errorf("Proportional(%v, %d) = %v sums to %d, want %d", c.sizes, c.n, got, sum, wantSum)
		}
		if c.want != nil {
			for i := range c.want {
				if got[i] != c.want[i] {
					t.Errorf("Proportional(%v, %d) = %v, want %v", c.sizes, c.n, got, c.want)
					break
				}
			}
		}
	}
}

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	if a.StreamSeed(3) != b.StreamSeed(3) {
		t.Error("same root seed must give same stream seeds")
	}
	if a.StreamSeed(1) == a.StreamSeed(2) {
		t.Error("different streams must differ")
	}
	s1 := WithoutReplacement(a.Rand(0), 1000, 10)
	s2 := WithoutReplacement(b.Rand(0), 1000, 10)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("derived streams not reproducible")
		}
	}
}

func choose(n, k int) int {
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

// TestPairedReservoirInsertFuncMatchesInsert feeds one insert/delete
// stream to two reservoirs with equal seeds, one through Insert and one
// through InsertFunc: the samples agree after every event, and build runs
// exactly when InsertFunc reports the item taken.
func TestPairedReservoirInsertFuncMatchesInsert(t *testing.T) {
	key := func(i int) string { return fmt.Sprint(i) }
	plain := NewPairedReservoir[int](rand.New(rand.NewSource(5)), 7, key)
	lazy := NewPairedReservoir[int](rand.New(rand.NewSource(5)), 7, key)
	stream := rand.New(rand.NewSource(6))
	var live []int
	for i := 0; i < 2000; i++ {
		if len(live) > 0 && stream.Intn(3) == 0 {
			j := stream.Intn(len(live))
			plain.Delete(live[j])
			lazy.DeleteKey(key(live[j]))
			live = append(live[:j], live[j+1:]...)
		} else {
			built := false
			plain.Insert(i)
			taken := lazy.InsertFunc(func() (int, string) {
				built = true
				return i, key(i)
			})
			if taken != built {
				t.Fatalf("event %d: taken %v, built %v", i, taken, built)
			}
			live = append(live, i)
		}
		if !slices.Equal(plain.Items(), lazy.Items()) {
			t.Fatalf("event %d: Insert sampled %v, InsertFunc %v", i, plain.Items(), lazy.Items())
		}
	}
}

// TestGrowInPlaceRounds: growing one Draw round after round — through
// rejection, the first dense round, later shuffles and the census — draws
// what a map-based model of the same state draws, with the same rng
// calls; once a round has listed the complement, no later round lists it
// again or moves it, and the census makes no rng call.
func TestGrowInPlaceRounds(t *testing.T) {
	const N = 1000
	fresh, inPlace := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	sample := WithoutReplacement(fresh, N, 10)
	WithoutReplacement(inPlace, N, 10)
	d := NewDraw(N, sample)
	taken := map[int]bool{}
	for _, i := range sample {
		taken[i] = true
	}
	var rest []int // the model's complement, listed by its first dense round
	var listed *int32
	for _, m := range []int{10, 200, 280, 100, 50, 200, 100, 50} {
		n := len(taken)
		var want []int
		switch {
		case rest == nil && (n+m)*2 < N:
			for len(want) < m {
				if c := fresh.Intn(N); !taken[c] {
					taken[c] = true
					want = append(want, c)
				}
			}
		default:
			if rest == nil {
				for i := 0; i < N; i++ {
					if !taken[i] {
						rest = append(rest, i)
					}
				}
			}
			if m < len(rest) {
				for i := 0; i < m; i++ {
					j := i + fresh.Intn(len(rest)-i)
					rest[i], rest[j] = rest[j], rest[i]
				}
			}
			want, rest = rest[:m], rest[m:]
			for _, c := range want {
				taken[c] = true
			}
		}
		got := d.Next(inPlace, m)
		if len(got) != len(want) {
			t.Fatalf("m=%d: drew %d", m, len(got))
		}
		for i := range got {
			if int(got[i]) != want[i] {
				t.Fatalf("m=%d: drew %v, model %v", m, got, want)
			}
		}
		if d.rest != nil {
			if listed != nil && &d.rest[0] != listed {
				t.Errorf("m=%d: the complement was listed again or moved", m)
			}
			listed = &d.rest[0]
		}
	}
	if d.Len() != N || len(taken) != N || fresh.Int63() != inPlace.Int63() {
		t.Errorf("grew to %d of %d, or the rng diverged", d.Len(), N)
	}
}

// TestDrawUniformAcrossRegimes draws a sample of 1 from N = 7 and grows
// it by 1 (rejection), 3 (the first dense round: the complement is
// listed), 1 (a shuffle of what is left) and 1 (the census): after every
// round each subset of the sample's size must be equally likely, every
// one of them must occur, and the census must be [0, N).
func TestDrawUniformAcrossRegimes(t *testing.T) {
	const N, trials = 7, 70000
	rounds := []int{1, 3, 1, 1}
	counts := make([]map[string]int, len(rounds))
	for r := range counts {
		counts[r] = map[string]int{}
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < trials; i++ {
		sample := WithoutReplacement(rng, N, 1)
		d := NewDraw(N, sample)
		for r, m := range rounds {
			for _, id := range d.Next(rng, m) {
				sample = append(sample, int(id))
			}
			key := slices.Clone(sample)
			sort.Ints(key)
			counts[r][subsetKey(key)]++
		}
	}
	n := 1
	for r, m := range rounds {
		n += m
		nsub := choose(N, n)
		if len(counts[r]) != nsub {
			t.Fatalf("round %d (n=%d): saw %d subsets, want %d", r+1, n, len(counts[r]), nsub)
		}
		p := 1 / float64(nsub)
		want, sigma := trials*p, math.Sqrt(trials*p*(1-p))
		for k, c := range counts[r] {
			if math.Abs(float64(c)-want) > 6*sigma {
				t.Errorf("round %d subset %s: %d, want %.0f±%.0f", r+1, k, c, want, 6*sigma)
			}
		}
	}
}
