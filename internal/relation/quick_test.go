package relation

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based tests (testing/quick) for the value and tuple invariants
// everything above this package depends on.

// randomValue draws an arbitrary Value from the generator's entropy.
func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(4) {
	case 0:
		return Null()
	case 1:
		return Int(int64(rng.Intn(21) - 10))
	case 2:
		return Float(float64(rng.Intn(41)-20) / 4)
	default:
		letters := []string{"", "a", "b", "ab", "ba", "z"}
		return Str(letters[rng.Intn(len(letters))])
	}
}

func TestQuickCompareIsTotalOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randomValue(rng), randomValue(rng), randomValue(rng)
		// Antisymmetry.
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		// Reflexivity.
		if a.Compare(a) != 0 {
			return false
		}
		// Transitivity (≤).
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			return false
		}
		// Equal ⇒ equal hashes and equal keys.
		if a.Compare(b) == 0 {
			if a.Hash() != b.Hash() {
				return false
			}
			if string(a.appendKey(nil)) != string(b.appendKey(nil)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyConsistentWithEqual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 1 + rng.Intn(3)
		a := make(Tuple, width)
		b := make(Tuple, width)
		for i := 0; i < width; i++ {
			a[i] = randomValue(rng)
			b[i] = randomValue(rng)
		}
		return a.Equal(b) == (a.Key(nil) == b.Key(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCSVRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		schema := MustSchema(
			Column{Name: "i", Kind: KindInt},
			Column{Name: "f", Kind: KindFloat},
			Column{Name: "s", Kind: KindString},
		)
		r := New("R", schema)
		n := rng.Intn(20)
		for k := 0; k < n; k++ {
			row := Tuple{Int(int64(rng.Intn(1000) - 500)), Float(rng.Float64() * 100), Str(csvSafeString(rng))}
			if rng.Intn(8) == 0 {
				row[rng.Intn(3)] = Null()
			}
			r.MustAppend(row)
		}
		var buf bytes.Buffer
		if err := ExportCSV(r, &buf); err != nil {
			return false
		}
		got, err := ImportCSV("R", bytes.NewReader(buf.Bytes()), schema)
		if err != nil {
			return false
		}
		if got.Len() != r.Len() {
			return false
		}
		for i := 0; i < r.Len(); i++ {
			if !got.Materialize(i).Equal(r.Materialize(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// csvSafeString avoids the one representational ambiguity of the CSV
// format: the empty string round-trips as null.
func csvSafeString(rng *rand.Rand) string {
	options := []string{"x", "hello", "with,comma", `with"quote`, "multi\nline", "späce"}
	return options[rng.Intn(len(options))]
}

func TestQuickDistinctIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New("R", MustSchema(Column{Name: "a", Kind: KindInt}))
		for k := 0; k < rng.Intn(30); k++ {
			r.MustAppend(Tuple{Int(int64(rng.Intn(5)))})
		}
		d1 := r.Distinct("d1")
		d2 := d1.Distinct("d2")
		if d1.Len() != d2.Len() {
			return false
		}
		return d1.RowsDistinct(d1.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsetPreservesTuples(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New("R", MustSchema(Column{Name: "a", Kind: KindInt}))
		n := 1 + rng.Intn(20)
		for k := 0; k < n; k++ {
			r.MustAppend(Tuple{Int(int64(k))})
		}
		m := rng.Intn(n + 1)
		pos := make([]int, m)
		for i := range pos {
			pos[i] = rng.Intn(n)
		}
		s := r.Subset("S", pos)
		if s.Len() != m {
			return false
		}
		for i, p := range pos {
			if !s.Materialize(i).Equal(r.Materialize(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// randomMixedRelation builds a random (int, float, string) relation with
// small domains (duplicates guaranteed) and occasional nulls.
func randomMixedRelation(rng *rand.Rand, name string, n int) *Relation {
	r := New(name, MustSchema(
		Column{Name: "i", Kind: KindInt},
		Column{Name: "f", Kind: KindFloat},
		Column{Name: "s", Kind: KindString},
	))
	letters := []string{"", "a", "b", "ab", "z"}
	for k := 0; k < n; k++ {
		row := Tuple{
			Int(int64(rng.Intn(6) - 3)),
			Float(float64(rng.Intn(9)-4) / 2),
			Str(letters[rng.Intn(len(letters))]),
		}
		if rng.Intn(6) == 0 {
			row[rng.Intn(3)] = Null()
		}
		r.MustAppend(row)
	}
	return r
}

// TestQuickRowRoundTripsMaterialize: for every row, the in-place accessors
// (Value, IsNull, Key) agree exactly with the materialized Tuple — the
// columnar storage and the escape hatch describe the same data.
func TestQuickRowRoundTripsMaterialize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomMixedRelation(rng, "R", rng.Intn(25))
		for i := 0; i < r.Len(); i++ {
			row := r.Row(i)
			tup := row.Materialize()
			if len(tup) != row.Len() {
				return false
			}
			for c := 0; c < row.Len(); c++ {
				if !tup[c].Equal(row.Value(c)) && !(tup[c].IsNull() && row.IsNull(c)) {
					return false
				}
				if tup[c].IsNull() != row.IsNull(c) {
					return false
				}
			}
			if tup.Key(nil) != row.Key(nil) {
				return false
			}
			// Materializing twice yields equal, independent tuples.
			if again := row.Materialize(); !again.Equal(tup) || (len(tup) > 0 && &again[0] == &tup[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickSortLayoutIndependent: sorting the same multiset of rows yields
// the same sequence whether the relation is a base (columns gathered into
// fresh storage) or a zero-copy view (index vector permuted) — and sorting
// a view leaves its base untouched.
func TestQuickSortLayoutIndependent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := randomMixedRelation(rng, "R", 1+rng.Intn(25))
		pos := make([]int, base.Len())
		for i := range pos {
			pos[i] = i
		}
		rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })

		asBase := base.Compact("base") // appendable base layout
		asView := base.Subset("view", pos)
		wasFirst := base.Materialize(0)
		asBase.Sort()
		asView.Sort()
		if !asView.IsView() || asBase.IsView() {
			return false
		}
		if asBase.Len() != asView.Len() {
			return false
		}
		for i := 0; i < asBase.Len(); i++ {
			if !asBase.Materialize(i).Equal(asView.Materialize(i)) {
				return false
			}
		}
		// Sorting the view only permuted its index vector.
		return base.Materialize(0).Equal(wasFirst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
