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
// field: slot table, buckets (hash and exemplar), bucket boundaries and row
// vector — everything but the relation pointer.
func sameIndex(a, b *Index) bool {
	return a.shift == b.shift && slices.Equal(a.slots, b.slots) && slices.Equal(a.groups, b.groups) &&
		slices.Equal(a.bounds, b.bounds) && slices.Equal(a.rows, b.rows) &&
		slices.Equal(a.cols, b.cols) && a.parts == b.parts && a.part == b.part
}

// TestQuickGrownIndexMatchesBuild grows memoized view indexes through one
// to three Extend calls and checks every grown index against BuildIndex
// over the grown view: the same bucket id for every key the view held
// before (old rows probed through the old index and the grown one, where
// the old index holds the probed key), the
// same BucketRows and BucketLen for every bucket, the same LookupBucket
// result for every row's key, including Int keys probing a Float column
// and back — and, since the grown index is what the build produces, the
// same layout field for field. The data mixes nulls, ±0, duplicate keys
// and two-column keys; extensions cross slot-table doublings and leave
// some intermediate views unindexed, so carried indexes grow across
// several appends at once. The parent views and their indexes must come
// out unchanged.
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
		positions := func(k int) []int {
			pos := make([]int, k)
			for i := range pos {
				pos[i] = rng.Intn(n)
			}
			return pos
		}
		ks := keySets[rng.Intn(len(keySets))]
		v := base.Subset("V", positions(1+rng.Intn(n)))
		ix := v.SharedIndex(ks.cols)
		for step := 1 + rng.Intn(3); step > 0; step-- {
			snapshot := *ix
			rowsBefore := slices.Clone(ix.rows)
			w := v.Extend(base, positions(rng.Intn(2*n)))
			if rng.Intn(3) == 0 && step > 1 {
				// Leave this view unindexed: the next one grows ix by both
				// appends at once.
				v = w
				continue
			}
			grown, built := w.SharedIndex(ks.cols), BuildIndex(w, ks.cols)
			if !sameIndex(grown, built) || w.SharedIndex(ks.cols) != grown {
				return false
			}
			if !sameIndex(ix, &snapshot) || !slices.Equal(ix.rows, rowsBefore) {
				return false // the parent's index changed
			}
			key := make([]KeyRef, len(ks.probe))
			for k, c := range ks.probe {
				key[k] = KeyRef{Rel: w, Col: c}
			}
			for i := 0; i < w.Len(); i++ {
				gid, grows := grown.LookupBucket(key, []int{i})
				bid, brows := built.LookupBucket(key, []int{i})
				if gid != bid || !slices.Equal(grows, brows) {
					return false
				}
				if i < ix.rel.Len() {
					oldKey := make([]KeyRef, len(key))
					for k := range key {
						oldKey[k] = KeyRef{Rel: ix.rel, Col: key[k].Col}
					}
					if oid, _ := ix.LookupBucket(oldKey, []int{i}); oid >= 0 && oid != gid {
						return false
					}
				}
			}
			for b := 0; b < built.Buckets(); b++ {
				if !slices.Equal(grown.BucketRows(b), built.BucketRows(b)) || grown.BucketLen(b) != built.BucketLen(b) {
					return false
				}
			}
			v, ix = w, grown
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGrownIndexCollisionChain grows an index whose two keys share one
// hash (collidedIndex, "b" forced onto the hash of "a" and first in its
// chain): appended "a" rows probe past the "b" bucket into their own,
// behind the old rows, a new key gets the next id, "b" keeps its rows,
// and the re-slotted table keeps the chain.
func TestGrownIndexCollisionChain(t *testing.T) {
	for _, extra := range [][]int{{2, 0}, {0, 2, 2, 0, 0, 2}} {
		r := testRelation(t) // rows: (1,a) (2,b) (3,a)
		r.MustAppend(Tuple{Int(4), Str("c")})
		v := r.Subset("V", []int{0, 1, 2})
		ix := collidedIndex(v, combineHash(hashSeed, refKeyHash(Str("a"))))
		v.memo = append(v.memo, &indexMemo{cols: []int{1}})
		v.memo[0].once.Do(func() { v.memo[0].ix.Store(ix) })
		w := v.Extend(r, append([]int{3}, extra...)) // "c", then rows of "a"
		g := w.SharedIndex([]int{1})
		want := map[string][]int{"a": {0, 2}, "c": {3}}
		for i := range extra {
			want["a"] = append(want["a"], 4+i)
		}
		if rows := g.BucketRows(0); !slices.Equal(rows, []int{1}) {
			t.Errorf("extra %v: bucket 0 (b) rows %v, want [1]", extra, rows)
		}
		for _, c := range []struct {
			id  int
			key string
		}{{1, "a"}, {2, "c"}} {
			gid, rows := g.LookupBucket([]KeyRef{{Rel: w, Col: 1}}, []int{want[c.key][0]})
			if gid != c.id || !slices.Equal(rows, want[c.key]) || g.BucketLen(c.id) != len(want[c.key]) {
				t.Errorf("extra %v, key %q: bucket %d rows %v, want bucket %d rows %v", extra, c.key, gid, rows, c.id, want[c.key])
			}
		}
		if g.Buckets() != 3 {
			t.Errorf("extra %v: %d buckets, want 3", extra, g.Buckets())
		}
	}
}

// TestExtendKeepsParent checks that Extend appends to a copy: the parent
// view keeps its rows and its memoized index, and an unbuilt memo entry
// is not carried.
func TestExtendKeepsParent(t *testing.T) {
	base := ordersRelation(t)
	v := base.Subset("v", []int{4, 2})
	ix := v.SharedIndex([]int{0})
	w := v.Extend(base, []int{0, 3, 2})
	if v.Len() != 2 || w.Len() != 5 || v.SharedIndex([]int{0}) != ix {
		t.Fatalf("parent changed: %d rows, index kept %v", v.Len(), v.SharedIndex([]int{0}) == ix)
	}
	for i, p := range []int{4, 2, 0, 3, 2} {
		if !w.Row(i).Materialize().Equal(base.Row(p).Materialize()) {
			t.Errorf("row %d = %v, want base row %d", i, w.Row(i).Materialize(), p)
		}
	}
	if len(w.memo) != 1 {
		t.Errorf("extended view carries %d memo entries, want 1", len(w.memo))
	}
	defer func() {
		if recover() == nil {
			t.Error("Extend of a base relation should panic")
		}
	}()
	base.Extend(base, []int{0})
}

// TestGrownIndexConcurrent has eight goroutines race for the first
// SharedIndex call on an extended view: the carried index grows once and
// every caller gets the grown index, while the parent keeps its own.
func TestGrownIndexConcurrent(t *testing.T) {
	base := ordersRelation(t)
	v := base.Subset("v", []int{0, 1})
	parent := v.SharedIndex([]int{0, 1})
	w := v.Extend(base, []int{2, 3, 4})
	got := make([]*Index, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = w.SharedIndex([]int{0, 1})
		}()
	}
	wg.Wait()
	for g, ix := range got {
		if ix == nil || ix != got[0] || ix == parent {
			t.Fatalf("goroutine %d got index %p, goroutine 0 got %p (parent %p)", g, ix, got[0], parent)
		}
	}
	if !sameIndex(got[0], BuildIndex(w, []int{0, 1})) || v.SharedIndex([]int{0, 1}) != parent {
		t.Error("the grown index differs from a build, or the parent lost its index")
	}
}
