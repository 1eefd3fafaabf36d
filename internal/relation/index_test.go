package relation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// ordersRelation builds a two-key fixture: (customer, item, qty).
func ordersRelation(t *testing.T) *Relation {
	t.Helper()
	r := New("orders", MustSchema(
		Column{"customer", KindInt},
		Column{"item", KindString},
		Column{"qty", KindFloat},
	))
	r.MustAppend(Tuple{Int(1), Str("apple"), Float(2)})
	r.MustAppend(Tuple{Int(1), Str("pear"), Float(1)})
	r.MustAppend(Tuple{Int(2), Str("apple"), Float(5)})
	r.MustAppend(Tuple{Int(1), Str("apple"), Float(3)})
	r.MustAppend(Tuple{Null(), Str("apple"), Float(4)})
	return r
}

// probeValues looks vals up through Lookup, holding them as the one row of
// a probe relation (a null value gets a null-kind column).
func probeValues(ix *Index, vals ...Value) []int {
	cols := make([]Column, len(vals))
	key := make([]KeyRef, len(vals))
	for k, v := range vals {
		cols[k] = Column{fmt.Sprintf("k%d", k), v.Kind()}
		key[k] = KeyRef{Col: k}
	}
	p := New("probe", MustSchema(cols...))
	p.MustAppend(Tuple(vals))
	for k := range key {
		key[k].Rel = p
	}
	return ix.Lookup(key, []int{0})
}

// refKeyHash is the index key hash of a boxed Value, the per-value form of
// column.keyHashAt.
func refKeyHash(v Value) uint64 {
	switch v.kind {
	case KindNull:
		return nullKeyHash
	case KindInt:
		return numKeyHash(float64(v.i))
	case KindFloat:
		return numKeyHash(v.f)
	default:
		return v.Hash()
	}
}

// refLookup is the boxing reference probe Lookup replaced: hash the boxed
// probe values, verify a bucket's exemplar with Value.Equal.
func refLookup(ix *Index, vals []Value) []int {
	h := hashSeed
	for _, v := range vals {
		h = combineHash(h, refKeyHash(v))
	}
	mask := uint64(len(ix.slots) - 1)
probe:
	for s := h >> ix.shift; ; s = (s + 1) & mask {
		g := ix.slots[s] - 1
		if g < 0 {
			return nil
		}
		b := &ix.groups[g]
		if b.hash != h {
			continue
		}
		for k, c := range ix.cols {
			if !ix.rel.Value(b.head, c).Equal(vals[k]) {
				continue probe
			}
		}
		return ix.BucketRows(int(g))
	}
}

func TestIndexLookup(t *testing.T) {
	r := ordersRelation(t)
	ix := BuildIndex(r, []int{0, 1})

	if got := probeValues(ix, Int(1), Str("apple")); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("(1, apple) = %v, want [0 3]", got)
	}
	if got := probeValues(ix, Int(2), Str("apple")); len(got) != 1 || got[0] != 2 {
		t.Errorf("(2, apple) = %v, want [2]", got)
	}
	if got := probeValues(ix, Int(9), Str("apple")); got != nil {
		t.Errorf("miss returned %v", got)
	}
	// Null key values match other nulls, mirroring Value.Equal.
	if got := probeValues(ix, Null(), Str("apple")); len(got) != 1 || got[0] != 4 {
		t.Errorf("(null, apple) = %v, want [4]", got)
	}
	// Int/Float numeric equality crosses kinds, as Equal and Hash demand.
	fx := BuildIndex(r, []int{2})
	if got := probeValues(fx, Int(2)); len(got) != 1 || got[0] != 0 {
		t.Errorf("Float column probed with Int(2) = %v, want [0]", got)
	}
}

// TestIndexLookupAcrossRelations probes with cells of other relations: one
// probe row whose key columns sit in a different order, and a composite key
// gathered from two relations at two slots (term evaluation's shape).
func TestIndexLookupAcrossRelations(t *testing.T) {
	r := ordersRelation(t)
	ix := BuildIndex(r, []int{0, 1})

	probe := New("probe", MustSchema(Column{"item", KindString}, Column{"customer", KindInt}))
	probe.MustAppend(Tuple{Str("apple"), Int(1)})
	probe.MustAppend(Tuple{Str("pear"), Int(2)})
	row := []KeyRef{{Rel: probe, Col: 1}, {Rel: probe, Col: 0}}
	if got := ix.Lookup(row, []int{0}); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("probe row 0 = %v, want [0 3]", got)
	}
	if got := ix.Lookup(row, []int{1}); got != nil {
		t.Errorf("probe miss returned %v", got)
	}

	customers := New("C", MustSchema(Column{"id", KindInt}))
	customers.MustAppend(Tuple{Int(2)})
	customers.MustAppend(Tuple{Int(1)})
	items := New("I", MustSchema(Column{"name", KindString}))
	items.MustAppend(Tuple{Str("pear")})
	items.MustAppend(Tuple{Str("apple")})
	two := []KeyRef{{Rel: customers, Slot: 1, Col: 0}, {Rel: items, Slot: 0, Col: 0}}
	if got := ix.Lookup(two, []int{1, 1}); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("(C[1], I[1]) = %v, want [0 3]", got)
	}
	if got := ix.Lookup(two, []int{0, 0}); got != nil {
		t.Errorf("(C[0], I[0]) = (2, pear) returned %v", got)
	}
}

func TestBuildIndexRows(t *testing.T) {
	r := ordersRelation(t)
	// Index only rows {3, 0} (in that order): candidate-list indexing.
	ix := BuildIndexRows(r, []int{1}, []int{3, 0})
	got := probeValues(ix, Str("apple"))
	if len(got) != 2 || got[0] != 3 || got[1] != 0 {
		t.Errorf("apple over rows [3 0] = %v, want [3 0] (insertion order)", got)
	}
	if got := probeValues(ix, Str("pear")); got != nil {
		t.Errorf("pear is outside the indexed rows, got %v", got)
	}
	if ix.Buckets() != 1 {
		t.Errorf("buckets = %d, want 1", ix.Buckets())
	}
}

func TestIndexOnView(t *testing.T) {
	r := ordersRelation(t)
	v := r.Subset("v", []int{4, 2, 0}) // rows in view positions 0,1,2
	ix := BuildIndex(v, []int{1})
	got := probeValues(ix, Str("apple"))
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("apple over view = %v, want [0 1 2] (view positions)", got)
	}
	// Positions are view-relative: resolve through the view's accessor.
	if q := v.Value(got[1], 2).Float64(); q != 5 {
		t.Errorf("view row %d qty = %v, want 5", got[1], q)
	}
}

// TestIndexCollisionChain exercises the collision paths directly. Real
// 64-bit hash collisions between distinct keys cannot be crafted from the
// public API, so the test assembles an Index whose two buckets — distinct
// keys "b" and "a" — carry one forced hash and sit in adjacent slots, and
// verifies the probe disambiguates by typed comparison, whether its key
// shares the index's dictionary or not: the matching bucket is found past
// the colliding one, and a probe that matches neither bucket misses.
func TestIndexCollisionChain(t *testing.T) {
	r := testRelation(t) // rows: (1,a) (2,b) (3,a)
	collided := func(h uint64) *Index { return collidedIndex(r, h) }
	hit := collided(combineHash(hashSeed, refKeyHash(Str("a"))))
	if got := probeValues(hit, Str("a")); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("collided probe, own dictionary = %v, want [0 2]", got)
	}
	if got := hit.Lookup([]KeyRef{{Rel: r, Col: 1}}, []int{2}); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("collided probe, shared dictionary = %v, want [0 2]", got)
	}
	miss := collided(combineHash(hashSeed, refKeyHash(Str("zzz"))))
	if got := probeValues(miss, Str("zzz")); got != nil {
		t.Errorf("colliding miss = %v, want nil", got)
	}
	// The colliding keys keep distinct bucket ids, each with its own size,
	// whichever of them carries the probed key's hash.
	for _, c := range []struct {
		key           string
		row, id, size int
	}{{"a", 0, 1, 2}, {"a", 2, 1, 2}, {"b", 1, 0, 1}} {
		ix := collided(combineHash(hashSeed, refKeyHash(Str(c.key))))
		id, rows := ix.LookupBucket([]KeyRef{{Rel: r, Col: 1}}, []int{c.row})
		if id != c.id || len(rows) != c.size || ix.BucketLen(c.id) != c.size {
			t.Errorf("collided probe of row %d: bucket %d of %d rows, want bucket %d of %d", c.row, id, len(rows), c.id, c.size)
		}
	}
	if id, rows := miss.LookupBucket([]KeyRef{{Rel: r, Col: 1}}, []int{1}); id != -1 || rows != nil {
		t.Errorf("colliding miss = bucket %d %v, want -1 nil", id, rows)
	}
}

// collidedIndex assembles an index on column 1 of testRelation whose two
// buckets — distinct keys "b" and "a" — carry the one forced hash h and sit
// in adjacent slots of a four-slot table.
func collidedIndex(r *Relation, h uint64) *Index {
	ix := &Index{
		rel:   r,
		cols:  []int{1},
		shift: 62, // four slots
		slots: make([]int32, 4),
		groups: []bucket{
			{hash: h, head: 1}, // "b"
			{hash: h, head: 0}, // "a", one slot further on
		},
		rows:   []int{1, 0, 2},
		bounds: []int32{0, 1, 3},
		parts:  1,
	}
	s := h >> ix.shift
	ix.slots[s], ix.slots[(s+1)&3] = 1, 2
	return ix
}

// TestQuickIndexMatchesScan checks the index against the naive scan on
// random data: for every row, the in-place probe and the boxing reference
// return exactly the rows an Equal-based scan finds, in ascending order; and bucket counts match the
// number of distinct keys. The data mixes Int and Float keys that compare
// equal (probing a Float column with Int values and back), ±0, nulls and
// two-column keys, over base relations and views with repeated rows. The
// memoized SharedIndex must agree with BuildIndex lookup for lookup, and a
// view must hand every caller the same memoized index.
func TestQuickIndexMatchesScan(t *testing.T) {
	keySets := []struct{ cols, probe []int }{
		{[]int{0}, []int{0}},
		{[]int{1}, []int{1}},
		{[]int{2}, []int{2}},
		{[]int{2}, []int{0}}, // Float index, Int probe
		{[]int{0}, []int{2}}, // Int index, Float probe
		{[]int{0, 1}, []int{0, 1}},
		{[]int{2, 1}, []int{0, 1}},
		{[]int{0, 2}, []int{2, 0}},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := New("R", MustSchema(Column{"a", KindInt}, Column{"b", KindString}, Column{"f", KindFloat}))
		n := 1 + rng.Intn(30)
		letters := []string{"", "a", "b", "ab"}
		floats := []float64{0, math.Copysign(0, -1), 1, 2, 2.5}
		for i := 0; i < n; i++ {
			// Small domains with nulls force duplicate keys and null==null
			// matches; kinds stay within each column's schema kind.
			row := Tuple{Int(int64(rng.Intn(4))), Str(letters[rng.Intn(len(letters))]), Float(floats[rng.Intn(len(floats))])}
			if rng.Intn(5) == 0 {
				row[rng.Intn(3)] = Null()
			}
			base.MustAppend(row)
		}
		r := base
		if rng.Intn(2) == 0 {
			pos := make([]int, 1+rng.Intn(2*n))
			for i := range pos {
				pos[i] = rng.Intn(n)
			}
			r = base.Subset("V", pos)
		}
		ks := keySets[rng.Intn(len(keySets))]
		ix := BuildIndex(r, ks.cols)
		shared := r.SharedIndex(ks.cols)
		if shared.Buckets() != ix.Buckets() {
			return false
		}
		if r.IsView() && r.SharedIndex(ks.cols) != shared {
			return false
		}
		matches := func(i, j int, probe []int) bool {
			for k, c := range ks.cols {
				if !r.Value(j, c).Equal(r.Value(i, probe[k])) {
					return false
				}
			}
			return true
		}
		vals := make([]Value, len(ks.cols))
		key := make([]KeyRef, len(ks.probe))
		for k, c := range ks.probe {
			key[k] = KeyRef{Rel: r, Col: c}
		}
		for i := 0; i < r.Len(); i++ {
			var want []int
			for j := 0; j < r.Len(); j++ {
				if matches(i, j, ks.probe) {
					want = append(want, j)
				}
			}
			for k, c := range ks.probe {
				vals[k] = r.Value(i, c)
			}
			for _, got := range [][]int{
				ix.Lookup(key, []int{i}), refLookup(ix, vals),
				shared.Lookup(key, []int{i}), refLookup(shared, vals),
			} {
				if !slices.Equal(got, want) {
					return false
				}
			}
		}
		distinct := 0
		for i := 0; i < r.Len(); i++ {
			first := true
			for j := 0; j < i; j++ {
				if matches(i, j, ks.cols) {
					first = false
					break
				}
			}
			if first {
				distinct++
			}
		}
		return ix.Buckets() == distinct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickLookupMatchesBoxedReference checks the in-place probe against
// the boxing reference it replaced, slice for slice (the same bucket of the
// same index), on composite keys gathered from up to three relations at
// distinct slots: string keys from separately built relations (different
// dictionaries) and from a view of the indexed relation (a shared one),
// Int cells probing a Float column and back, ±0, NaN and nulls. Bucket ids
// follow key equality: probes with Equal NaN-free keys get one id, probes
// that hit buckets with distinct keys get distinct ids, and an id's
// BucketRows and BucketLen are the probe's rows.
func TestQuickLookupMatchesBoxedReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		letters := []string{"", "a", "b", "ab"}
		floats := []float64{0, math.Copysign(0, -1), 1, 2, math.NaN()}
		cell := func(k Kind) Value {
			if rng.Intn(6) == 0 {
				return Null()
			}
			switch k {
			case KindInt:
				return Int(int64(rng.Intn(3)))
			case KindFloat:
				return Float(floats[rng.Intn(len(floats))])
			default:
				return Str(letters[rng.Intn(len(letters))])
			}
		}
		build := func(name string, n int, kinds ...Kind) *Relation {
			cols := make([]Column, len(kinds))
			for c, k := range kinds {
				cols[c] = Column{fmt.Sprintf("c%d", c), k}
			}
			r := New(name, MustSchema(cols...))
			for i := 0; i < n; i++ {
				row := make(Tuple, len(kinds))
				for c, k := range kinds {
					row[c] = cell(k)
				}
				r.MustAppend(row)
			}
			return r
		}
		a := build("A", 1+rng.Intn(40), KindInt, KindString, KindFloat)
		b := build("B", 1+rng.Intn(10), KindString, KindFloat)
		c := build("C", 1+rng.Intn(10), KindInt, KindString)
		v := a.Subset("V", []int{rng.Intn(a.Len()), rng.Intn(a.Len()), 0})
		cases := []struct {
			cols []int
			key  []KeyRef
		}{
			{[]int{0, 1}, []KeyRef{{Rel: b, Slot: 0, Col: 1}, {Rel: c, Slot: 1, Col: 1}}},
			{[]int{1, 2}, []KeyRef{{Rel: b, Slot: 1, Col: 0}, {Rel: c, Slot: 0, Col: 0}}},
			{[]int{0, 1, 2}, []KeyRef{{Rel: b, Slot: 0, Col: 1}, {Rel: v, Slot: 1, Col: 1}, {Rel: c, Slot: 2, Col: 0}}},
			{[]int{1}, []KeyRef{{Rel: v, Slot: 0, Col: 1}}},
			{[]int{2, 0}, []KeyRef{{Rel: b, Slot: 0, Col: 1}, {Rel: c, Slot: 1, Col: 0}}},
		}
		ks := cases[rng.Intn(len(cases))]
		target := a
		if rng.Intn(2) == 0 {
			target = a.Subset("W", []int{a.Len() - 1, 0, a.Len() - 1})
		}
		ix := BuildIndex(target, ks.cols)
		rows := make([]int, 3)
		type probed struct {
			vals []Value
			id   int
		}
		var seen []probed
		for trial := 0; trial < 30; trial++ {
			for _, kr := range ks.key {
				rows[kr.Slot] = rng.Intn(kr.Rel.Len())
			}
			vals := make([]Value, len(ks.key))
			for k, kr := range ks.key {
				vals[k] = kr.Rel.Value(rows[kr.Slot], kr.Col)
			}
			got, want := ix.Lookup(ks.key, rows), refLookup(ix, vals)
			if !slices.Equal(got, want) || (len(got) > 0 && &got[0] != &want[0]) {
				return false
			}
			id, bucket := ix.LookupBucket(ks.key, rows)
			if !slices.Equal(bucket, got) || (id < 0) != (got == nil) {
				return false
			}
			if id >= 0 && (ix.BucketLen(id) != len(got) || !slices.Equal(ix.BucketRows(id), got)) {
				return false
			}
			// NaN compares equal to every number but hashes as itself, so
			// key equality is an equivalence only on NaN-free keys.
			if slices.ContainsFunc(vals, func(v Value) bool { return v.kind == KindFloat && math.IsNaN(v.f) }) {
				continue
			}
			for _, p := range seen {
				equal := true
				for k := range vals {
					equal = equal && vals[k].Equal(p.vals[k])
				}
				if (equal && id != p.id) || (!equal && id >= 0 && id == p.id) {
					return false
				}
			}
			seen = append(seen, probed{vals: vals, id: id})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBuildIndexAllocsFlat pins the flat layout's allocation bound: a build
// allocates a fixed handful of slices (the bucket list grows by doubling),
// not one slice per distinct key.
func TestBuildIndexAllocsFlat(t *testing.T) {
	r := New("R", MustSchema(Column{"k", KindInt}))
	for i := 0; i < 10000; i++ {
		r.MustAppend(Tuple{Int(int64(i % 1500))})
	}
	cols := []int{0}
	if b := BuildIndex(r, cols).Buckets(); b < 1000 {
		t.Fatalf("fixture has %d distinct keys, want >= 1000", b)
	}
	if allocs := testing.AllocsPerRun(5, func() { BuildIndex(r, cols) }); allocs > 32 {
		t.Errorf("BuildIndex allocates %.0f times over 10000 rows, want <= 32", allocs)
	}
}

// TestSharedIndexMemo checks the memo rule: a view hands every caller the
// same index per key column set; a base relation, which can still grow,
// gets a fresh build each time; a memoized index is counted in the view's
// Bytes; and Sort, which reorders a view in place, drops the memo.
func TestSharedIndexMemo(t *testing.T) {
	base := ordersRelation(t)
	if base.SharedIndex([]int{0}) == base.SharedIndex([]int{0}) {
		t.Error("a base relation must not memoize its index")
	}
	v := base.Subset("v", []int{4, 2, 0, 3})
	before := v.Bytes()
	ix := v.SharedIndex([]int{1})
	if v.SharedIndex([]int{1}) != ix {
		t.Error("second SharedIndex on a view returned a different index")
	}
	if v.SharedIndex([]int{0, 1}) == ix {
		t.Error("distinct key column sets share one index")
	}
	if got, want := v.Bytes(), before+ix.Bytes()+v.SharedIndex([]int{0, 1}).Bytes(); got != want {
		t.Errorf("view Bytes = %d, want %d (index vector plus memoized indexes)", got, want)
	}
	v.Sort()
	if v.SharedIndex([]int{1}) == ix {
		t.Error("Sort kept an index over the old row order")
	}
}

// TestSharedIndexConcurrent has eight goroutines race for a view's first
// SharedIndex call: exactly one build happens and every caller gets it.
func TestSharedIndexConcurrent(t *testing.T) {
	v := ordersRelation(t).Clone("v")
	got := make([]*Index, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = v.SharedIndex([]int{0, 1})
		}()
	}
	wg.Wait()
	for g, ix := range got {
		if ix == nil || ix != got[0] {
			t.Fatalf("goroutine %d got index %p, goroutine 0 got %p", g, ix, got[0])
		}
	}
}

// splitAgrees checks Split's contract for one probe: part l returns exactly
// the parent's rows for the key that are labelled l, in the parent's order,
// for every part, under the parent's bucket id, and the part's BucketLen
// for that id is the filtered length.
func splitAgrees(parent *Index, parts []*Index, label []int32, key []KeyRef, rows []int) bool {
	id, want := parent.LookupBucket(key, rows)
	total := 0
	for l, part := range parts {
		got := part.Lookup(key, rows)
		total += len(got)
		if pid, _ := part.LookupBucket(key, rows); pid != id {
			return false
		}
		if id >= 0 && part.BucketLen(id) != len(got) {
			return false
		}
		i := 0
		for _, row := range want {
			if label[row] != int32(l) {
				continue
			}
			if i >= len(got) || got[i] != row {
				return false
			}
			i++
		}
		if i != len(got) {
			return false
		}
	}
	return total == len(want)
}

// TestQuickSplitMatchesFilteredLookup checks Index.Split against its
// definition on random data: for random labels, every part's probe equals
// the parent's probe filtered to the part's label, in order, and every
// part reports the parent's bucket id with the filtered BucketLen. The data has
// null keys, composite keys gathered from two relations, Int cells probing
// a Float column and back, labels drawn from a prefix of the groups (so
// trailing parts are empty), and indexes over a whole relation, a view
// with repeated rows, and a filtered candidate list (BuildIndexRows).
func TestQuickSplitMatchesFilteredLookup(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		letters := []string{"", "a", "b"}
		floats := []float64{0, math.Copysign(0, -1), 1, 2, 2.5}
		build := func(name string, n int, kinds ...Kind) *Relation {
			cols := make([]Column, len(kinds))
			for c, k := range kinds {
				cols[c] = Column{fmt.Sprintf("c%d", c), k}
			}
			r := New(name, MustSchema(cols...))
			for i := 0; i < n; i++ {
				row := make(Tuple, len(kinds))
				for c, k := range kinds {
					switch {
					case rng.Intn(6) == 0:
						row[c] = Null()
					case k == KindInt:
						row[c] = Int(int64(rng.Intn(3)))
					case k == KindFloat:
						row[c] = Float(floats[rng.Intn(len(floats))])
					default:
						row[c] = Str(letters[rng.Intn(len(letters))])
					}
				}
				r.MustAppend(row)
			}
			return r
		}
		a := build("A", 1+rng.Intn(60), KindInt, KindString, KindFloat)
		c := build("C", 1+rng.Intn(10), KindFloat, KindString, KindInt)
		target := a
		if rng.Intn(3) == 0 {
			pos := make([]int, 1+rng.Intn(2*a.Len()))
			for i := range pos {
				pos[i] = rng.Intn(a.Len())
			}
			target = a.Subset("V", pos)
		}
		cases := []struct {
			cols []int
			key  []KeyRef
		}{
			{[]int{0, 1}, []KeyRef{{Rel: target, Slot: 0, Col: 0}, {Rel: c, Slot: 1, Col: 1}}},
			{[]int{0, 1}, []KeyRef{{Rel: c, Slot: 1, Col: 0}, {Rel: target, Slot: 0, Col: 1}}}, // Float probes Int
			{[]int{2, 1}, []KeyRef{{Rel: c, Slot: 1, Col: 2}, {Rel: target, Slot: 0, Col: 1}}}, // Int probes Float
			{[]int{2}, []KeyRef{{Rel: target, Slot: 0, Col: 2}}},
		}
		ks := cases[rng.Intn(len(cases))]
		var ix *Index
		if rng.Intn(2) == 0 {
			ix = BuildIndex(target, ks.cols)
		} else {
			var rows []int
			for i := 0; i < target.Len(); i++ {
				if rng.Intn(3) > 0 {
					rows = append(rows, i)
				}
			}
			ix = BuildIndexRows(target, ks.cols, rows)
		}
		g := 1 + rng.Intn(6)
		used := 1 + rng.Intn(g)
		label := make([]int32, target.Len())
		for i := range label {
			label[i] = int32(rng.Intn(used))
		}
		parts := ix.Split(label, g)
		if len(parts) != g {
			return false
		}
		rows := make([]int, 2)
		for trial := 0; trial < 40; trial++ {
			rows[0], rows[1] = rng.Intn(target.Len()), rng.Intn(c.Len())
			if !splitAgrees(ix, parts, label, ks.key, rows) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSplitCollisionChain splits the forced-collision fixture: the parts
// keep the shared slot table and buckets, so a probe still walks past the
// colliding bucket, and each part returns only its own rows of the match.
func TestSplitCollisionChain(t *testing.T) {
	r := testRelation(t) // rows: (1,a) (2,b) (3,a)
	for _, probe := range []string{"a", "b", "zzz"} {
		ix := collidedIndex(r, combineHash(hashSeed, refKeyHash(Str(probe))))
		label := []int32{1, 0, 0}
		parts := ix.Split(label, 3)
		p := New("probe", MustSchema(Column{"k", KindString}))
		p.MustAppend(Tuple{Str(probe)})
		if !splitAgrees(ix, parts, label, []KeyRef{{Rel: p, Col: 0}}, []int{0}) {
			t.Errorf("probe %q: split parts disagree with the filtered parent", probe)
		}
	}
}
