package relation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// indexOn indexes every row of r on cols, coded in dom.
func indexOn(r *Relation, cols []int, dom *KeyDomain) *Index {
	return NewIndex(r.KeyCodes(cols, dom), nil)
}

// valuesCode codes vals in dom as the one row of a probe relation (a null
// value gets a null-kind column): a single value's code, or the tuple code
// of several.
func valuesCode(dom *KeyDomain, vals ...Value) int32 {
	cols := make([]Column, len(vals))
	for k, v := range vals {
		cols[k] = Column{fmt.Sprintf("k%d", k), v.Kind()}
	}
	p := New("probe", MustSchema(cols...))
	p.MustAppend(Tuple(vals))
	return p.KeyCodes(seq(len(vals)), dom)[0]
}

// probeValues looks vals up in ix, whose keys are coded in dom.
func probeValues(ix *Index, dom *KeyDomain, vals ...Value) []int {
	return ix.Lookup(valuesCode(dom, vals...))
}

// tupleOf chains codes into one tuple code, as a key over several columns
// is coded.
func tupleOf(dom *KeyDomain, codes ...int32) int32 {
	dom.mu.Lock()
	defer dom.mu.Unlock()
	c := codes[0]
	for _, next := range codes[1:] {
		c = dom.tupleCode(c, next)
	}
	return c
}

// padDomain codes n distinct keys no test relation holds, so the codes
// dom hands out next are sparse: past every padding code.
func padDomain(dom *KeyDomain, n int) {
	pad := New("pad", MustSchema(Column{"p", KindFloat}))
	for i := 0; i < n; i++ {
		pad.MustAppend(Tuple{Float(float64(i) + 0.25)})
	}
	pad.KeyCodes([]int{0}, dom)
}

// filled returns the number of ix's buckets that hold rows: one per
// distinct key among the indexed rows.
func filled(ix *Index) int {
	n := 0
	for b := 0; b < ix.nb; b++ {
		if len(bucketRows(ix, b)) > 0 {
			n++
		}
	}
	return n
}

// keyOf is the key encoding of vals (appendKey, column by column): the
// boxed reference for key identity, which agrees with Equal on NaN-free
// keys and keys a NaN by its bit pattern.
func keyOf(vals []Value) string {
	var b []byte
	for _, v := range vals {
		b = v.appendKey(b)
	}
	return string(b)
}

func TestIndexLookup(t *testing.T) {
	r := ordersRelation(t)
	dom := NewKeyDomain()
	ix := indexOn(r, []int{0, 1}, dom)

	if got := probeValues(ix, dom, Int(1), Str("apple")); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("(1, apple) = %v, want [0 3]", got)
	}
	if got := probeValues(ix, dom, Int(2), Str("apple")); len(got) != 1 || got[0] != 2 {
		t.Errorf("(2, apple) = %v, want [2]", got)
	}
	if got := probeValues(ix, dom, Int(9), Str("apple")); got != nil {
		t.Errorf("miss returned %v", got)
	}
	// Null key values match other nulls, mirroring Value.Equal.
	if got := probeValues(ix, dom, Null(), Str("apple")); len(got) != 1 || got[0] != 4 {
		t.Errorf("(null, apple) = %v, want [4]", got)
	}
	// Int/Float numeric equality crosses kinds, as Equal and Hash demand.
	fx := indexOn(r, []int{2}, dom)
	if got := probeValues(fx, dom, Int(2)); len(got) != 1 || got[0] != 0 {
		t.Errorf("Float column probed with Int(2) = %v, want [0]", got)
	}
}

// TestIndexLookupAcrossRelations probes with cells of other relations: one
// probe row whose key columns sit in a different order, and a composite key
// gathered from two relations at two rows (term evaluation's shape), its
// tuple code chained from the two cells' codes.
func TestIndexLookupAcrossRelations(t *testing.T) {
	r := ordersRelation(t)
	dom := NewKeyDomain()
	ix := indexOn(r, []int{0, 1}, dom)

	probe := New("probe", MustSchema(Column{"item", KindString}, Column{"customer", KindInt}))
	probe.MustAppend(Tuple{Str("apple"), Int(1)})
	probe.MustAppend(Tuple{Str("pear"), Int(2)})
	codes := probe.KeyCodes([]int{1, 0}, dom)
	if got := ix.Lookup(codes[0]); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("probe row 0 = %v, want [0 3]", got)
	}
	if got := ix.Lookup(codes[1]); got != nil {
		t.Errorf("probe miss returned %v", got)
	}

	customers := New("C", MustSchema(Column{"id", KindInt}))
	customers.MustAppend(Tuple{Int(2)})
	customers.MustAppend(Tuple{Int(1)})
	items := New("I", MustSchema(Column{"name", KindString}))
	items.MustAppend(Tuple{Str("pear")})
	items.MustAppend(Tuple{Str("apple")})
	c, i := customers.KeyCodes([]int{0}, dom), items.KeyCodes([]int{0}, dom)
	if got := ix.Lookup(tupleOf(dom, c[1], i[1])); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("(C[1], I[1]) = %v, want [0 3]", got)
	}
	if got := ix.Lookup(tupleOf(dom, c[0], i[0])); got != nil {
		t.Errorf("(C[0], I[0]) = (2, pear) returned %v", got)
	}
}

func TestBuildIndexRows(t *testing.T) {
	r := ordersRelation(t)
	dom := NewKeyDomain()
	// Index only rows {3, 0} (in that order): candidate-list indexing.
	ix := NewIndex(r.KeyCodes([]int{1}, dom), []int{3, 0})
	got := probeValues(ix, dom, Str("apple"))
	if len(got) != 2 || got[0] != 3 || got[1] != 0 {
		t.Errorf("apple over rows [3 0] = %v, want [3 0] (insertion order)", got)
	}
	if got := probeValues(ix, dom, Str("pear")); got != nil {
		t.Errorf("pear is outside the indexed rows, got %v", got)
	}
	if filled(ix) != 1 {
		t.Errorf("filled buckets = %d, want 1", filled(ix))
	}
}

func TestIndexOnView(t *testing.T) {
	r := ordersRelation(t)
	v := r.Subset("v", []int{4, 2, 0}) // rows in view positions 0,1,2
	dom := NewKeyDomain()
	ix := indexOn(v, []int{1}, dom)
	got := probeValues(ix, dom, Str("apple"))
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("apple over view = %v, want [0 1 2] (view positions)", got)
	}
	// Positions are view-relative: resolve through the view's accessor.
	if q := v.Value(got[1], 2).Float64(); q != 5 {
		t.Errorf("view row %d qty = %v, want 5", got[1], q)
	}
}

// TestQuickIndexMatchesScan checks the index against the naive scan on
// random data: for every row, the probe of the row's key code returns
// exactly the rows an Equal-based scan finds, in ascending order; and
// bucket counts match the number of distinct keys. The data mixes Int and
// Float keys that compare equal (probing a Float column with Int values
// and back), ±0, nulls and two-column keys, over base relations and views
// with repeated rows, with dense codes and with codes made sparse by a
// padded domain. BuildIndex, in a domain of its own, must bucket as the
// index over the shared domain's codes does, and a view must hand every
// caller of a memoizing domain the same code vector.
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
		dom := NewMemoKeyDomain()
		padDomain(dom, rng.Intn(3)*4*n)
		codes := r.KeyCodes(ks.cols, dom)
		ix := NewIndex(codes, nil)
		if filled(BuildIndex(r, ks.cols)) != filled(ix) {
			return false
		}
		if again := r.KeyCodes(ks.cols, dom); r.IsView() != (&again[0] == &codes[0]) {
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
		probe := r.KeyCodes(ks.probe, dom)
		for i := 0; i < r.Len(); i++ {
			var want []int
			for j := 0; j < r.Len(); j++ {
				if matches(i, j, ks.probe) {
					want = append(want, j)
				}
			}
			if got := ix.Lookup(probe[i]); !slices.Equal(got, want) {
				return false
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
		return filled(ix) == distinct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickLookupMatchesBoxedReference checks the probe against a boxing
// reference, slice for slice: the indexed rows, in order, whose boxed key
// values encode as the probe's do (keyOf). Probe keys are composite keys
// gathered from up to three relations at distinct rows, their tuple codes
// chained from the cells' codes: string keys from separately built
// relations (different dictionaries) and from a view of the indexed
// relation (a shared one), Int cells probing a Float column and back, ±0,
// NaN and nulls. Bucket ids follow key identity: probes with equal keys
// get one id, probes with distinct keys get distinct ids (or none, past
// every indexed code), and an id's bucket rows are the
// probe's rows.
func TestQuickLookupMatchesBoxedReference(t *testing.T) {
	type keyRef struct{ rel, slot, col int }
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
		rels := []*Relation{b, c, v}
		const B, C, V = 0, 1, 2
		cases := []struct {
			cols []int
			key  []keyRef
		}{
			{[]int{0, 1}, []keyRef{{B, 0, 1}, {C, 1, 1}}},
			{[]int{1, 2}, []keyRef{{B, 1, 0}, {C, 0, 0}}},
			{[]int{0, 1, 2}, []keyRef{{B, 0, 1}, {V, 1, 1}, {C, 2, 0}}},
			{[]int{1}, []keyRef{{V, 0, 1}}},
			{[]int{2, 0}, []keyRef{{B, 0, 1}, {C, 1, 0}}},
		}
		ks := cases[rng.Intn(len(cases))]
		target := a
		if rng.Intn(2) == 0 {
			target = a.Subset("W", []int{a.Len() - 1, 0, a.Len() - 1})
		}
		dom := NewKeyDomain()
		ix := indexOn(target, ks.cols, dom)
		cellCodes := make([][]int32, len(ks.key))
		for k, kr := range ks.key {
			cellCodes[k] = rels[kr.rel].KeyCodes([]int{kr.col}, dom)
		}
		rows := make([]int, 3)
		type probed struct {
			key string
			id  int
		}
		var seen []probed
		for trial := 0; trial < 30; trial++ {
			for _, kr := range ks.key {
				rows[kr.slot] = rng.Intn(rels[kr.rel].Len())
			}
			vals := make([]Value, len(ks.key))
			codes := make([]int32, len(ks.key))
			for k, kr := range ks.key {
				vals[k] = rels[kr.rel].Value(rows[kr.slot], kr.col)
				codes[k] = cellCodes[k][rows[kr.slot]]
			}
			key := keyOf(vals)
			var want []int
			for row := 0; row < target.Len(); row++ {
				held := make([]Value, len(ks.cols))
				for k, col := range ks.cols {
					held[k] = target.Value(row, col)
				}
				if keyOf(held) == key {
					want = append(want, row)
				}
			}
			code := tupleOf(dom, codes...)
			got := ix.Lookup(code)
			if !slices.Equal(got, want) || (got == nil) != (want == nil) {
				return false
			}
			id := ix.bucketOf(code)
			if (id < 0 || len(bucketRows(ix, id)) == 0) != (got == nil) {
				return false
			}
			if id >= 0 && (len(bucketRows(ix, id)) != len(got) || !slices.Equal(bucketRows(ix, id), got)) {
				return false
			}
			for _, p := range seen {
				if (p.key == key && id != p.id) || (p.key != key && id >= 0 && id == p.id) {
					return false
				}
			}
			seen = append(seen, probed{key: key, id: id})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBuildIndexAllocsFlat pins the flat layout's allocation bound: a build
// allocates a fixed handful of slices (the domain's tables and the code
// vector, sized for the rows, and the index's own three), not one slice
// per distinct key.
func TestBuildIndexAllocsFlat(t *testing.T) {
	r := New("R", MustSchema(Column{"k", KindInt}))
	for i := 0; i < 10000; i++ {
		r.MustAppend(Tuple{Int(int64(i % 1500))})
	}
	cols := []int{0}
	if b := filled(BuildIndex(r, cols)); b < 1000 {
		t.Fatalf("fixture has %d distinct keys, want >= 1000", b)
	}
	if allocs := testing.AllocsPerRun(5, func() { BuildIndex(r, cols) }); allocs > 32 {
		t.Errorf("BuildIndex allocates %.0f times over 10000 rows, want <= 32", allocs)
	}
}

// bucketRows returns bucket b's rows.
func bucketRows(ix *Index, b int) []int {
	return ix.rows[ix.bounds[b]:ix.bounds[b+1]]
}
