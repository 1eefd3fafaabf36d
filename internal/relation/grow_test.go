package relation

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// sameIndex reports whether two indexes of the same rows agree field for
// field: bucket boundaries and row vector.
func sameIndex(a, b *Index) bool {
	return slices.Equal(a.bounds, b.bounds) && slices.Equal(a.rows, b.rows)
}

// TestQuickGrownIndexMatchesBuild grows memoized view code vectors through
// one to three Extend calls and checks the index over every grown vector
// against the index over a fresh view holding the same rows, coded in the
// same domain: the same layout field for field, so the same bucket id,
// rows for every key, and the same bucket for every
// row's probe, including Int keys probing a Float column and back. Every
// old row keeps its code. The data mixes nulls, ±0, duplicate keys and
// two-column keys; some intermediate views are left uncoded, so carried
// codes grow across several appends at once. The parent views and their
// codes must come out unchanged.
func TestQuickGrownIndexMatchesBuild(t *testing.T) {
	keySets := []struct{ cols, probe []int }{
		{[]int{0}, []int{0}},
		{[]int{1}, []int{1}},
		{[]int{2}, []int{0}}, // Float index, Int probe
		{[]int{0}, []int{2}}, // Int index, Float probe
		{[]int{0, 1}, []int{0, 1}},
		{[]int{2, 1}, []int{0, 1}},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := New("R", MustSchema(Column{"a", KindInt}, Column{"b", KindString}, Column{"f", KindFloat}))
		n := 1 + rng.Intn(60)
		letters := []string{"", "a", "b", "ab"}
		floats := []float64{0, math.Copysign(0, -1), 1, 2, 2.5}
		for i := 0; i < n; i++ {
			row := Tuple{Int(int64(rng.Intn(4))), Str(letters[rng.Intn(len(letters))]), Float(floats[rng.Intn(len(floats))])}
			if rng.Intn(5) == 0 {
				row[rng.Intn(3)] = Null()
			}
			base.MustAppend(row)
		}
		var held []int // the base positions the current view holds
		positions := func(k int) []int {
			pos := make([]int, k)
			for i := range pos {
				pos[i] = rng.Intn(n)
			}
			return pos
		}
		ks := keySets[rng.Intn(len(keySets))]
		dom := NewMemoKeyDomain()
		held = positions(1 + rng.Intn(n))
		v := base.Subset("V", held)
		codes := v.KeyCodes(ks.cols, dom)
		for step := 1 + rng.Intn(3); step > 0; step-- {
			before := slices.Clone(codes)
			add := positions(rng.Intn(2 * n))
			w := v.Extend(base, add)
			held = append(held, add...)
			if rng.Intn(3) == 0 && step > 1 {
				// Leave this view uncoded: the next one grows codes by both
				// appends at once.
				v = w
				continue
			}
			grown := w.KeyCodes(ks.cols, dom)
			if !slices.Equal(grown[:len(codes)], codes) || !slices.Equal(codes, before) {
				return false // an old row was recoded, or the parent's codes changed
			}
			fresh := base.Subset("F", held)
			gx, fx := NewIndex(grown, nil), NewIndex(fresh.KeyCodes(ks.cols, dom), nil)
			if !sameIndex(gx, fx) {
				return false
			}
			probe := w.KeyCodes(ks.probe, dom)
			for i := range probe {
				if gx.bucketOf(probe[i]) != fx.bucketOf(probe[i]) || !slices.Equal(gx.Lookup(probe[i]), fx.Lookup(probe[i])) {
					return false
				}
			}
			v, codes = w, grown
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestExtendKeepsParent checks that Extend appends to a copy: the parent
// view keeps its rows and its memoized code vector, and an uncoded memo
// entry is not carried.
func TestExtendKeepsParent(t *testing.T) {
	base := ordersRelation(t)
	dom := NewMemoKeyDomain()
	v := base.Subset("v", []int{4, 2})
	codes := v.KeyCodes([]int{0}, dom)
	v.memoMu.Lock()
	v.codes = append(v.codes, &codeMemo{cols: []int{1}, dom: dom}) // never coded
	v.memoMu.Unlock()
	w := v.Extend(base, []int{0, 3, 2})
	if again := v.KeyCodes([]int{0}, dom); v.Len() != 2 || w.Len() != 5 || &again[0] != &codes[0] {
		t.Fatalf("parent changed: %d rows, codes kept %v", v.Len(), &again[0] == &codes[0])
	}
	for i, p := range []int{4, 2, 0, 3, 2} {
		if !w.Row(i).Materialize().Equal(base.Row(p).Materialize()) {
			t.Errorf("row %d = %v, want base row %d", i, w.Row(i).Materialize(), p)
		}
	}
	if len(w.codes) != 1 {
		t.Errorf("extended view carries %d code memo entries, want 1", len(w.codes))
	}
	defer func() {
		if recover() == nil {
			t.Error("Extend of a base relation should panic")
		}
	}()
	base.Extend(base, []int{0})
}

// TestGrownIndexConcurrent has eight goroutines race for the first
// KeyCodes call on an extended view: the carried codes grow once, every
// caller gets the grown vector, the parent keeps its own, and the index
// over the grown codes is the index over a fresh view's.
func TestGrownIndexConcurrent(t *testing.T) {
	base := ordersRelation(t)
	dom := NewMemoKeyDomain()
	v := base.Subset("v", []int{0, 1})
	parent := v.KeyCodes([]int{0, 1}, dom)
	w := v.Extend(base, []int{2, 3, 4})
	got := make([][]int32, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = w.KeyCodes([]int{0, 1}, dom)
		}()
	}
	wg.Wait()
	for g, codes := range got {
		if len(codes) != w.Len() || &codes[0] != &got[0][0] || &codes[0] == &parent[0] {
			t.Fatalf("goroutine %d got its own code vector, or the parent's", g)
		}
	}
	fresh := base.Subset("f", []int{0, 1, 2, 3, 4}).KeyCodes([]int{0, 1}, dom)
	if again := v.KeyCodes([]int{0, 1}, dom); !sameIndex(NewIndex(got[0], nil), NewIndex(fresh, nil)) || &again[0] != &parent[0] {
		t.Error("the grown codes index differently from a fresh view's, or the parent lost its codes")
	}
}
