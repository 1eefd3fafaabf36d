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
// Float exactly, and Equal ⇔ same Key encoding ⇔ same hash-index bucket ⇔
// same key code, while Equal ⇒ same Hash. FilterCmp agrees with Compare,
// and Distinct keeps every distinct int.
func TestNumericEqualityAgrees(t *testing.T) {
	vals := append(edgeNumerics(), Null())
	ints, floats, at := numericRelations(vals)
	ix := map[*Relation]*Index{ints: BuildIndex(ints, []int{0}), floats: BuildIndex(floats, []int{0})}
	bucket := func(in *Relation, i int) int { // value i's bucket in in's index
		r, row := at(i)
		k, _ := ix[in].LookupBucket([]KeyRef{{Rel: r, Col: 0}}, []int{row})
		return k
	}
	views := map[*Relation]*Relation{ints: ints.Subset("I", seq(ints.Len())), floats: floats.Subset("F", seq(floats.Len()))}
	dom := NewKeyDomain()
	code := func(i int) int32 {
		r, row := at(i)
		return views[r].KeyCodes(0, dom)[row]
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

// codesMatchIndex reports whether v's codes on column c bucket its rows
// exactly as a hash index does: rows share a code iff they share a
// bucket, and ranking codes by first appearance gives the bucket ids.
func codesMatchIndex(v *Relation, c int, codes []int32) error {
	if len(codes) != v.Len() {
		return fmt.Errorf("%d codes for %d rows", len(codes), v.Len())
	}
	ix := BuildIndex(v, []int{c})
	rank := map[int32]int{}
	for row, code := range codes {
		k, _ := ix.LookupBucket([]KeyRef{{Rel: v, Col: c}}, []int{row})
		if _, seen := rank[code]; !seen {
			rank[code] = len(rank)
		}
		if rank[code] != k {
			return fmt.Errorf("row %d (%v): code %d first seen as bucket %d, index bucket %d", row, v.Value(row, c), code, rank[code], k)
		}
	}
	if len(rank) != ix.Buckets() {
		return fmt.Errorf("%d codes, %d buckets", len(rank), ix.Buckets())
	}
	return nil
}

// TestQuickKeyCodesMatchIndex checks key codes against the hash index on
// random relations (null, ±0, NaN and Int↔Float keys): within a view,
// across two relations (their strings in two dictionaries, Int against
// Float columns), through chains of Extend, on a Clone, and on an Alias,
// whose codes in another domain stay off the view it aliases.
func TestQuickKeyCodesMatchIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 200 && !t.Failed(); trial++ {
		dom := NewKeyDomain()
		bases := []*Relation{keyedRelation(rng, "R", 10+rng.Intn(40)), keyedRelation(rng, "S", 10+rng.Intn(40))}
		var views []*Relation
		for _, b := range bases {
			v := b.Subset(b.Name(), rng.Perm(b.Len())[:1+rng.Intn(b.Len()/2)])
			for c := 0; c < 3; c++ {
				v.KeyCodes(c, dom) // the codes Extend carries
			}
			for ext := 0; ext < 3; ext++ {
				views = append(views, v)
				v = v.Extend(b, rng.Perm(b.Len())[:rng.Intn(b.Len())])
			}
			views = append(views, v, v.Clone(b.Name()))
		}
		for _, v := range views {
			for c := 0; c < 3; c++ {
				codes := v.KeyCodes(c, dom)
				if err := codesMatchIndex(v, c, codes); err != nil {
					t.Fatalf("trial %d, %s column %d: %v", trial, v.Name(), c, err)
				}
				fresh := NewKeyDomain()
				if got := v.Alias().KeyCodes(c, fresh); codesMatchIndex(v, c, got) != nil {
					t.Fatalf("trial %d: an alias's codes in a fresh domain do not bucket like the index", trial)
				}
				for _, m := range v.codes {
					if m.dom == fresh {
						t.Fatalf("trial %d: an alias's codes in its own domain landed on the view it aliases", trial)
					}
				}
				if !slices.Equal(v.Alias().KeyCodes(c, dom), codes) {
					t.Fatalf("trial %d: an alias does not share its view's codes", trial)
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
			for c := 0; c < 3; c++ {
				want := parent.KeyCodes(c, dom)
				if got := child.KeyCodes(c, dom)[:parent.Len()]; !slices.Equal(got, want) {
					t.Fatalf("trial %d: %s column %d: extended view recoded its parent's rows", trial, child.Name(), c)
				}
			}
		}
		// Across relations, a row's code matches another view's code iff
		// its probe lands in that row's bucket.
		r, s := views[len(views)/2-1], views[len(views)-1]
		for _, pair := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}} {
			a, b := r.KeyCodes(pair[0], dom), s.KeyCodes(pair[1], dom)
			ix := BuildIndex(s, []int{pair[1]})
			for i := range a {
				k, _ := ix.LookupBucket([]KeyRef{{Rel: r, Col: pair[0]}}, []int{i})
				for j := range b {
					kj, _ := ix.LookupBucket([]KeyRef{{Rel: s, Col: pair[1]}}, []int{j})
					if (a[i] == b[j]) != (k == kj) {
						t.Fatalf("trial %d: %v of R and %v of S: same code %v, same bucket %v", trial, r.Value(i, pair[0]), s.Value(j, pair[1]), a[i] == b[j], k == kj)
					}
				}
			}
		}
	}
}

// TestKeyCodesBase checks that a base relation, which can still grow, gets
// no code vector.
func TestKeyCodesBase(t *testing.T) {
	r := keyedRelation(rand.New(rand.NewSource(1)), "R", 10)
	if codes := r.KeyCodes(0, NewKeyDomain()); codes != nil {
		t.Errorf("a base relation has codes %v", codes)
	}
	if r.Alias() != r {
		t.Error("a base relation's alias is not the base itself")
	}
}

// TestKeyCodesConcurrent codes one view's columns from many goroutines in
// one domain: every caller of a column gets the one vector, and the codes
// of different columns agree on Equal keys.
func TestKeyCodesConcurrent(t *testing.T) {
	b := keyedRelation(rand.New(rand.NewSource(2)), "R", 500)
	v := b.Subset("R", seq(b.Len()))
	dom := NewKeyDomain()
	got := make([][]int32, 12)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = v.KeyCodes(g%3, dom)
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

// floatOr returns a float cell's value, 0 for null.
func floatOr(v Value) float64 {
	if v.IsNull() {
		return 0
	}
	return v.Float64()
}
