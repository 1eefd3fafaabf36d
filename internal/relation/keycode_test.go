package relation

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// edgeNumerics are the numeric keys float64 alone orders wrongly or its
// bits alone tell apart wrongly: both zeros, ±2^53 and its neighbours, the
// int64 extremes and the floats beside them, and an Int↔Float pair.
func edgeNumerics() []Value {
	const p = 1 << 53
	return []Value{
		Int(0), Float(0), Float(math.Copysign(0, -1)),
		Int(p), Int(p + 1), Int(p - 1), Int(p + 2), Int(-p), Int(-p - 1),
		Float(p), Float(p + 2), Float(p - 1), Float(-p), Float(-p - 2),
		Int(math.MinInt64), Int(math.MinInt64 + 1), Int(math.MaxInt64), Int(math.MaxInt64 - 1),
		Float(-(1 << 63)), Float(1 << 63), Float(math.Nextafter(1<<63, 0)),
		Int(2), Float(2), Float(2.5), Float(-2.5), Int(-3),
	}
}

// exactCompare orders two numerics by their exact values.
func exactCompare(a, b Value) int {
	exact := func(v Value) *big.Float {
		if v.Kind() == KindInt {
			return new(big.Float).SetInt64(v.Int64())
		}
		return big.NewFloat(v.Float64())
	}
	return exact(a).Cmp(exact(b))
}

// numericRelations holds the values in two one-column relations, one per
// kind, and returns them with each value's (relation, row).
func numericRelations(vals []Value) (ints, floats *Relation, at func(i int) (*Relation, int)) {
	ints = New("I", MustSchema(Column{Name: "k", Kind: KindInt}))
	floats = New("F", MustSchema(Column{Name: "k", Kind: KindFloat}))
	where := make([]int, len(vals))
	for i, v := range vals {
		r := ints
		if v.Kind() == KindFloat {
			r = floats
		}
		where[i] = r.Len()
		r.MustAppend(Tuple{v})
	}
	return ints, floats, func(i int) (*Relation, int) {
		if vals[i].Kind() == KindFloat {
			return floats, where[i]
		}
		return ints, where[i]
	}
}

// TestNumericEqualityAgrees pins the one numeric equality every layer
// shares, over the keys where float64 rounds: Compare orders Int against
// Float exactly, and Equal ⇔ same Key encoding ⇔ same index bucket ⇔
// same key code, while Equal ⇒ same Hash. FilterCmp agrees with Compare,
// and Distinct keeps every distinct int.
func TestNumericEqualityAgrees(t *testing.T) {
	vals := append(edgeNumerics(), Null())
	ints, floats, at := numericRelations(vals)
	views := map[*Relation]*Relation{ints: ints.Subset("I", seq(ints.Len())), floats: floats.Subset("F", seq(floats.Len()))}
	dom := NewMemoKeyDomain()
	code := func(i int) int32 {
		r, row := at(i)
		return views[r].KeyCodes([]int{0}, dom)[row]
	}
	probe := NewKeyDomain() // the index's own domain, apart from the views'
	ix := map[*Relation]*Index{ints: indexOn(ints, []int{0}, probe), floats: indexOn(floats, []int{0}, probe)}
	bucket := func(in *Relation, i int) int { // value i's bucket in in's index
		r, row := at(i)
		return ix[in].bucketOf(r.KeyCodes([]int{0}, probe)[row])
	}
	for i, a := range vals {
		for j, b := range vals {
			eq := a.Equal(b)
			if !a.IsNull() && !b.IsNull() {
				if got, want := a.Compare(b), exactCompare(a, b); got != want {
					t.Errorf("Compare(%v %v, %v %v) = %d, exactly %d", a.Kind(), a, b.Kind(), b, got, want)
				}
			}
			ub, _ := at(j)
			facts := map[string]bool{
				"same key":    string(a.appendKey(nil)) == string(b.appendKey(nil)),
				"same bucket": bucket(ub, i) >= 0 && bucket(ub, i) == bucket(ub, j),
				"same code":   code(i) == code(j),
			}
			for what, holds := range facts {
				if holds != eq {
					t.Errorf("%v %v vs %v %v: Equal %v, %s %v", a.Kind(), a, b.Kind(), b, eq, what, holds)
				}
			}
			if eq && a.Hash() != b.Hash() {
				t.Errorf("%v %v and %v %v are Equal with different hashes", a.Kind(), a, b.Kind(), b)
			}
		}
	}
	for i, k := range vals {
		for _, r := range []*Relation{ints, floats} {
			for op, keep := range [][3]bool{{true, false, false}, {false, true, false}, {false, false, true}} {
				got := r.FilterCmp(seq(r.Len()), 0, k, keep)
				var want []int
				for row := 0; row < r.Len(); row++ {
					if v := r.Value(row, 0); !v.IsNull() && !k.IsNull() && keep[v.Compare(k)+1] {
						want = append(want, row)
					}
				}
				if !slices.Equal(got, want) {
					t.Errorf("FilterCmp(%s, op %d, %v %v) kept rows %v, Compare keeps %v", r.Name(), op, vals[i].Kind(), k, got, want)
				}
			}
		}
	}
	if n := ints.Distinct("D").Len(); n != ints.Len() {
		t.Errorf("Distinct kept %d of %d distinct ints", n, ints.Len())
	}
}

// seq returns 0, 1, …, n−1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// keyedRelation builds a relation with an Int, a Float and a String key
// column over small overlapping domains: null in every column, both zeros
// and a NaN among the floats, floats that Equal ints, and strings in the
// relation's own dictionary.
func keyedRelation(rng *rand.Rand, name string, n int) *Relation {
	r := New(name, MustSchema(
		Column{Name: "i", Kind: KindInt},
		Column{Name: "f", Kind: KindFloat},
		Column{Name: "s", Kind: KindString},
	))
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1, 2, 2.5, -3}
	words := []string{"", "a", "b", "ab", "z"}
	for k := 0; k < n; k++ {
		row := Tuple{
			Int(int64(rng.Intn(7) - 3)),
			Float(floats[rng.Intn(len(floats))]),
			Str(words[rng.Intn(len(words))]),
		}
		if rng.Intn(6) == 0 {
			row[rng.Intn(3)] = Null()
		}
		r.MustAppend(row)
	}
	return r
}

// codesMatchIndex reports whether v's codes on cols bucket its rows exactly
// as the key encoding does (keyOf over the key's cells): rows share a code
// iff their keys encode alike, and the index over the codes has one bucket
// per distinct encoding, listing exactly that key's rows.
func codesMatchIndex(v *Relation, cols []int, codes []int32) error {
	if len(codes) != v.Len() {
		return fmt.Errorf("%d codes for %d rows", len(codes), v.Len())
	}
	ix := NewIndex(codes, nil)
	byKey := map[string][]int{}
	bucketOf := map[string]int{}
	for row, code := range codes {
		vals := make([]Value, len(cols))
		for k, c := range cols {
			vals[k] = v.Value(row, c)
		}
		key := keyOf(vals)
		byKey[key] = append(byKey[key], row)
		b, seen := bucketOf[key]
		if !seen {
			b = ix.bucketOf(code)
			bucketOf[key] = b
		}
		if ix.bucketOf(code) != b || b < 0 {
			return fmt.Errorf("row %d (%v): code %d in bucket %d, its key's bucket is %d", row, vals, code, ix.bucketOf(code), b)
		}
	}
	if len(byKey) != filled(ix) {
		return fmt.Errorf("%d keys, %d filled buckets", len(byKey), filled(ix))
	}
	for key, rows := range byKey {
		if got := bucketRows(ix, bucketOf[key]); !slices.Equal(got, rows) {
			return fmt.Errorf("bucket %d lists rows %v, its key's rows are %v", bucketOf[key], got, rows)
		}
	}
	return nil
}

// TestQuickKeyCodesMatchIndex checks key codes against the key encoding
// and the index built on them, on random relations (null, ±0, NaN and
// Int↔Float keys), for one-column keys and for tuple codes of two and
// three columns: within a view, across two relations (their strings in two
// dictionaries, Int against Float columns), through chains of Extend, on a
// Clone, and on an Alias, which carries none of its view's code vectors,
// codes alike in the view's domain, and keeps its codes in another domain
// off the view it aliases.
func TestQuickKeyCodesMatchIndex(t *testing.T) {
	keys := [][]int{{0}, {1}, {2}, {0, 1}, {2, 1}, {0, 1, 2}}
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 200 && !t.Failed(); trial++ {
		dom := NewMemoKeyDomain()
		bases := []*Relation{keyedRelation(rng, "R", 10+rng.Intn(40)), keyedRelation(rng, "S", 10+rng.Intn(40))}
		var views []*Relation
		for _, b := range bases {
			v := b.Subset(b.Name(), rng.Perm(b.Len())[:1+rng.Intn(b.Len()/2)])
			for _, cols := range keys {
				v.KeyCodes(cols, dom) // the codes Extend carries
			}
			for ext := 0; ext < 3; ext++ {
				views = append(views, v)
				v = v.Extend(b, rng.Perm(b.Len())[:rng.Intn(b.Len())])
			}
			views = append(views, v, v.Clone(b.Name()))
		}
		for _, v := range views {
			for _, cols := range keys {
				codes := v.KeyCodes(cols, dom)
				if err := codesMatchIndex(v, cols, codes); err != nil {
					t.Fatalf("trial %d, %s columns %v: %v", trial, v.Name(), cols, err)
				}
				fresh := NewMemoKeyDomain()
				if got := v.Alias().KeyCodes(cols, fresh); codesMatchIndex(v, cols, got) != nil {
					t.Fatalf("trial %d: an alias's codes in a fresh domain do not bucket like the key encoding", trial)
				}
				for _, m := range v.codes {
					if m.dom == fresh {
						t.Fatalf("trial %d: an alias's codes in its own domain landed on the view it aliases", trial)
					}
				}
				a := v.Alias()
				if len(a.codes) != 0 {
					t.Fatalf("trial %d: an alias carries its view's code vectors", trial)
				}
				if !slices.Equal(a.KeyCodes(cols, dom), codes) {
					t.Fatalf("trial %d: an alias codes its rows unlike the view it aliases", trial)
				}
			}
		}
		// An extended view codes its old rows as its parent did and its
		// new rows as a fresh view over the same rows does.
		for i := 0; i+1 < len(views); i++ {
			parent, child := views[i], views[i+1]
			if child.Name() != parent.Name() || child.Len() < parent.Len() {
				continue
			}
			for _, cols := range keys {
				want := parent.KeyCodes(cols, dom)
				if got := child.KeyCodes(cols, dom)[:parent.Len()]; !slices.Equal(got, want) {
					t.Fatalf("trial %d: %s columns %v: extended view recoded its parent's rows", trial, child.Name(), cols)
				}
			}
		}
		// Across relations, a row's code matches another view's code iff
		// the two keys encode alike, and so iff its probe lands in that
		// row's bucket.
		r, s := views[len(views)/2-1], views[len(views)-1]
		for _, pair := range [][2][]int{{{0}, {0}}, {{0}, {1}}, {{1}, {0}}, {{1}, {1}}, {{2}, {2}}, {{0, 2}, {1, 2}}, {{1, 2, 0}, {0, 2, 1}}} {
			a, b := r.KeyCodes(pair[0], dom), s.KeyCodes(pair[1], dom)
			ix := NewIndex(b, nil)
			cells := func(v *Relation, row int, cols []int) []Value {
				vals := make([]Value, len(cols))
				for k, c := range cols {
					vals[k] = v.Value(row, c)
				}
				return vals
			}
			for i := range a {
				for j := range b {
					same := keyOf(cells(r, i, pair[0])) == keyOf(cells(s, j, pair[1]))
					if (a[i] == b[j]) != same || (ix.bucketOf(a[i]) == ix.bucketOf(b[j])) != same {
						t.Fatalf("trial %d: %v of R and %v of S: same key %v, same code %v", trial, cells(r, i, pair[0]), cells(s, j, pair[1]), same, a[i] == b[j])
					}
				}
			}
		}
	}
}

// TestKeyCodesBase checks who memoizes: a base relation, which can still
// grow, codes afresh on every call, and so does a view in a domain that
// is not a memoizing one, while a view in a memoizing domain codes once.
// The fresh vectors code alike, and a base codes the rows appended since.
func TestKeyCodesBase(t *testing.T) {
	r := keyedRelation(rand.New(rand.NewSource(1)), "R", 10)
	if r.Alias() != r {
		t.Error("a base relation's alias is not the base itself")
	}
	v := r.Subset("V", seq(r.Len()))
	plain, memo := NewKeyDomain(), NewMemoKeyDomain()
	for _, c := range []struct {
		rel  *Relation
		dom  *KeyDomain
		memo bool
	}{{r, plain, false}, {r, memo, false}, {v, plain, false}, {v, memo, true}} {
		a, b := c.rel.KeyCodes([]int{0, 2}, c.dom), c.rel.KeyCodes([]int{0, 2}, c.dom)
		if !slices.Equal(a, b) || (&a[0] == &b[0]) != c.memo {
			t.Errorf("%s in a memoizing domain %v: two calls share a vector %v, want %v", c.rel.Name(), c.dom == memo, &a[0] == &b[0], c.memo)
		}
	}
	if len(r.codes) != 0 || len(v.codes) != 1 {
		t.Errorf("memo entries: base %d, view %d; want 0 and 1", len(r.codes), len(v.codes))
	}
	r.MustAppend(Tuple{Int(99), Float(99), Str("new")})
	if codes := r.KeyCodes([]int{0}, plain); len(codes) != r.Len() || codes[r.Len()-1] == codes[0] {
		t.Errorf("a grown base coded %d rows of %d, the new key as %v", len(codes), r.Len(), codes)
	}
}

// TestKeyCodesConcurrent codes one view's columns from many goroutines in
// one domain: every caller of a column gets the one vector, and the codes
// of different columns agree on Equal keys.
func TestKeyCodesConcurrent(t *testing.T) {
	b := keyedRelation(rand.New(rand.NewSource(2)), "R", 500)
	v := b.Subset("R", seq(b.Len()))
	dom := NewMemoKeyDomain()
	got := make([][]int32, 12)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = v.KeyCodes([]int{g % 3}, dom)
		}()
	}
	wg.Wait()
	for g := range got {
		if &got[g][0] != &got[g%3][0] {
			t.Fatalf("goroutine %d got its own code vector for column %d", g, g%3)
		}
	}
	for row := 0; row < v.Len(); row++ {
		i, f := v.Value(row, 0), v.Value(row, 1)
		if (got[0][row] == got[1][row]) != i.Equal(f) && !math.IsNaN(floatOr(f)) {
			t.Fatalf("row %d: %v and %v share a code %v, Equal %v", row, i, f, got[0][row] == got[1][row], i.Equal(f))
		}
	}
}

// TestKeyDomainCollisionChain puts a numeric, an int past ±2^53, a string
// and a tuple key on one probe chain of a fresh domain, with a fifth key
// for the same slot left out: the four get distinct codes, the fifth
// misses, and after enough other keys to resize the table several times
// the four still find their codes and the fifth still misses.
func TestKeyDomainCollisionChain(t *testing.T) {
	d := NewKeyDomain()
	slot := func(h uint64) uint64 { return h >> d.shift }
	const target = 5
	find := func(next func(i int) uint64) int {
		for i := 0; ; i++ {
			if slot(next(i)) == target {
				return i
			}
		}
	}
	numBitsOf := func(i int) uint64 { return numBits(float64(i) + 0.5) }
	num := float64(find(func(i int) uint64 { return mixBits(numBitsOf(i)) })) + 0.5
	past := func(i int) int64 { return 1<<62 + 2*int64(i) + 1 } // odd: float64 does not hold it
	big := past(find(func(i int) uint64 { return mixBits(^uint64(past(i))) }))
	str := fmt.Sprintf("s%d", find(func(i int) uint64 { return Str(fmt.Sprintf("s%d", i)).Hash() }))
	tupleBits := func(i int) uint64 { return uint64(i)<<32 | 7 }
	pair := find(func(i int) uint64 { return mixBits(tupleBits(i) ^ tupleSeed) })
	missing := fmt.Sprintf("m%d", find(func(i int) uint64 { return Str(fmt.Sprintf("m%d", i)).Hash() }))

	if _, exact := exactFloat(big); exact {
		t.Fatalf("%d is held by a float64", big)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	codes := []int32{
		d.numCode(num),
		d.intCode(big),
		d.code(keyStr, 0, str, Str(str).Hash()),
		d.tupleCode(int32(pair), 7),
	}
	for i, c := range codes {
		for _, o := range codes[:i] {
			if c == o {
				t.Fatalf("keys on one chain share code %d: %v", c, codes)
			}
		}
	}
	lookup := func() []int32 {
		nb, ib := numBits(num), uint64(big)
		tb := tupleBits(pair)
		out := make([]int32, 4)
		out[0], _ = d.find(keyNum, nb, "", mixBits(nb))
		out[1], _ = d.find(keyInt, ib, "", mixBits(^ib))
		out[2], _ = d.find(keyStr, 0, str, Str(str).Hash())
		out[3], _ = d.find(keyTuple, tb, "", mixBits(tb^tupleSeed))
		return out
	}
	misses := func() bool {
		c, _ := d.find(keyStr, 0, missing, Str(missing).Hash())
		return c < 0
	}
	if got := lookup(); !slices.Equal(got, codes) || !misses() {
		t.Fatalf("before resizing: found %v, coded %v; missing key misses %v", got, codes, misses())
	}
	size := len(d.slots)
	for i := 0; len(d.slots) < 8*size; i++ {
		d.intCode(int64(1000 + i))
	}
	if got := lookup(); !slices.Equal(got, codes) || !misses() {
		t.Errorf("after resizing %d → %d slots: found %v, coded %v; missing key misses %v", size, len(d.slots), got, codes, misses())
	}
}

// floatOr returns a float cell's value, 0 for null.
func floatOr(v Value) float64 {
	if v.IsNull() {
		return 0
	}
	return v.Float64()
}

// TestRowsDistinct: RowsDistinct reads only the first n rows, tells rows
// apart on any column (a unique first column settles it; otherwise the
// tuple of all columns does), matches null to null as a join key does,
// and agrees with a string-keyed set over every prefix.
func TestRowsDistinct(t *testing.T) {
	r := New("R", MustSchema(Column{"a", KindInt}, Column{"s", KindString}, Column{"f", KindFloat}))
	rows := []Tuple{
		{Int(1), Str("x"), Float(0.5)},
		{Int(1), Str("y"), Float(0.5)}, // differs from row 0 only in s
		{Int(2), Null(), Float(0.5)},
		{Int(2), Null(), Float(1.5)}, // differs from row 2 only in f
		{Int(2), Null(), Float(0.5)}, // row 2 again: null matches null
		{Int(3), Str("x"), Float(0.5)},
	}
	for _, row := range rows {
		r.MustAppend(row)
	}
	for n := 0; n <= r.Len()+1; n++ {
		seen := map[string]bool{}
		want := true
		for i := range min(n, r.Len()) {
			k := r.Row(i).Key(nil)
			want = want && !seen[k]
			seen[k] = true
		}
		if got := r.RowsDistinct(n); got != want {
			t.Errorf("RowsDistinct(%d) = %v, want %v", n, got, want)
		}
	}
	ids := New("I", MustSchema(Column{"id", KindInt}, Column{"v", KindInt}))
	for i := range 100 {
		ids.MustAppend(Tuple{Int(int64(i)), Int(7)})
	}
	if !ids.RowsDistinct(100) || !ids.RowsDistinct(ids.Len()) {
		t.Error("a unique first column does not make the rows distinct")
	}
}
