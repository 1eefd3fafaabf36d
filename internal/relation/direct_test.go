package relation

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// hashedCodes codes the key over cols of r's rows through the hash path
// alone — every cell by intCode, numCode, its string's code, and tuples
// by tupleCode — in the order codeRows visits them: what a domain with no
// direct table hands out.
func hashedCodes(d *KeyDomain, r *Relation, cols []int) []int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	column := func(col int) []int32 {
		out := make([]int32, r.Len())
		for i := range out {
			switch v := r.Value(i, col); {
			case v.IsNull():
			case v.Kind() == KindInt:
				out[i] = d.intCode(v.Int64())
			case v.Kind() == KindFloat:
				out[i] = d.numCode(v.Float64())
			default:
				out[i] = d.code(keyStr, 0, v.Text(), v.Hash())
			}
		}
		return out
	}
	out := column(cols[0])
	for _, col := range cols[1:] {
		for i, c := range column(col) {
			out[i] = d.tupleCode(out[i], c)
		}
	}
	return out
}

// directFixture returns relations whose keys mix what the direct table
// covers with what it must leave to the hash path: Int keys inside its
// range, past it, negative and past ±2^53; integral and non-integral
// floats, −0 and NaN; and strings from two dictionaries (relations S and
// T), T pairing an Int with a string for tuple codes.
func directFixture(rng *rand.Rand) []*Relation {
	ints := func() Value {
		switch rng.Intn(6) {
		case 0:
			return Int(int64(rng.Intn(4000))) // past a small domain's table
		case 1:
			return Int(-int64(rng.Intn(50)))
		case 2:
			return Int([]int64{1 << 53, 1<<53 + 1, -1<<53 - 1, math.MaxInt64, math.MinInt64}[rng.Intn(5)])
		default:
			return Int(int64(rng.Intn(60)))
		}
	}
	floats := func() Value {
		return Float([]float64{0, math.Copysign(0, -1), 2, 7, 2.5, -3, math.NaN(), 1 << 53, 3999}[rng.Intn(9)])
	}
	strs := func() Value { return Str([]string{"a", "b", "c", "7", ""}[rng.Intn(5)]) }
	build := func(name string, kinds []Kind, cell []func() Value) *Relation {
		cols := make([]Column, len(kinds))
		for i, k := range kinds {
			cols[i] = Column{Name: string(rune('a' + i)), Kind: k}
		}
		r := New(name, MustSchema(cols...))
		for n := 1 + rng.Intn(80); n > 0; n-- {
			row := make(Tuple, len(kinds))
			for i := range row {
				row[i] = cell[i]()
				if rng.Intn(8) == 0 {
					row[i] = Null()
				}
			}
			r.MustAppend(row)
		}
		return r
	}
	return []*Relation{
		build("I", []Kind{KindInt}, []func() Value{ints}),
		build("F", []Kind{KindFloat}, []func() Value{floats}),
		build("S", []Kind{KindString}, []func() Value{strs}),
		build("T", []Kind{KindInt, KindString}, []func() Value{ints, strs}),
	}
}

// TestQuickDirectTableMatchesHash codes random views of mixed keys in two
// domains, one through codeRows (whose Int cells read the direct table
// first) and one through the hash path alone: every vector must get the
// same codes, so the table hands out codes in first-seen order and keeps
// Int(2) on Float(2.0)'s code whichever came first. Views are coded in a
// random order, so keys reach the table before and after it covers them.
func TestQuickDirectTableMatchesHash(t *testing.T) {
	used := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rels := directFixture(rng)
		direct, hashed := NewKeyDomain(), NewKeyDomain()
		for step := 0; step < 12; step++ {
			r := rels[rng.Intn(len(rels))]
			cols := []int{0}
			if r.Schema().Len() == 2 {
				cols = [][]int{{0}, {1}, {0, 1}, {1, 0}}[rng.Intn(4)]
			}
			rows := make([]int, 1+rng.Intn(2*r.Len()))
			for i := range rows {
				rows[i] = rng.Intn(r.Len())
			}
			v := r.Subset(r.Name(), rows)
			got, want := v.KeyCodes(cols, direct), hashedCodes(hashed, v, cols)
			if !slices.Equal(got, want) {
				t.Logf("seed %d step %d: %s%v coded %v with the direct table, %v by hashing", seed, step, r.Name(), cols, got, want)
				return false
			}
		}
		if len(direct.direct) > 0 {
			used++
		}
		return len(direct.kinds) == len(hashed.kinds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(54))}); err != nil {
		t.Fatal(err)
	}
	if used < 200 {
		t.Errorf("the direct table served only %d of 300 runs", used)
	}
}

// TestDirectTableConcurrent codes Int and Float views in one memoizing
// domain from many goroutines while the direct table grows: Equal keys
// get one code across every view, and distinct keys distinct codes.
func TestDirectTableConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ints := New("I", MustSchema(Column{Name: "k", Kind: KindInt}))
	floats := New("F", MustSchema(Column{Name: "k", Kind: KindFloat}))
	for i := 0; i < 3000; i++ {
		ints.MustAppend(Tuple{Int(int64(rng.Intn(2500)))})
		floats.MustAppend(Tuple{Float(float64(rng.Intn(2500)))})
	}
	dom := NewMemoKeyDomain()
	views := make([]*Relation, 16)
	codes := make([][]int32, len(views))
	var wg sync.WaitGroup
	for g := range views {
		base := ints
		if g%3 == 0 {
			base = floats
		}
		lo := g * 100
		views[g] = base.Subset(base.Name(), seq(base.Len())[lo:lo+800])
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[g] = views[g].KeyCodes([]int{0}, dom)
		}()
	}
	wg.Wait()
	seen := map[float64]int32{}
	byCode := map[int32]float64{}
	for g, v := range views {
		for row, c := range codes[g] {
			k := floatOr(v.Value(row, 0))
			if prev, ok := seen[k]; ok && prev != c {
				t.Fatalf("key %v has codes %d and %d", k, prev, c)
			}
			if prev, ok := byCode[c]; ok && prev != k {
				t.Fatalf("code %d holds keys %v and %v", c, prev, k)
			}
			seen[k], byCode[c] = c, k
		}
	}
}

// TestExtendTwiceIndependent extends one view twice, with its code vector
// built first: the two grown views hold their own rows and codes — what
// a fresh view of the same rows codes — and building the second leaves
// the first as it was. The first Extend of a view grows in place when the
// room is there; a second Extend of the same view, and any Extend of an
// alias, copies.
func TestExtendTwiceIndependent(t *testing.T) {
	base := keyedRelation(rand.New(rand.NewSource(5)), "R", 200)
	dom := NewMemoKeyDomain()
	cols := []int{0, 2}
	check := func(what string, v *Relation, held []int) {
		t.Helper()
		fresh := base.Subset("F", held)
		if !slices.Equal(v.view, fresh.view) {
			t.Fatalf("%s holds rows %v, want %v", what, v.view, fresh.view)
		}
		if got, want := v.KeyCodes(cols, dom), fresh.KeyCodes(cols, dom); !slices.Equal(got, want) {
			t.Fatalf("%s codes %v, a fresh view %v", what, got, want)
		}
	}
	held := seq(20)
	v := base.Subset("V", held)
	v.KeyCodes(cols, dom)
	grow := func(from *Relation, held []int, lo int) (*Relation, []int) {
		add := seq(base.Len())[lo : lo+20]
		return from.Extend(base, add), append(slices.Clip(held), add...)
	}
	w, wHeld := grow(v, held, 20) // copies: a Subset keeps no room
	check("first extension", w, wHeld)
	x, xHeld := grow(w, wHeld, 40) // grows into w's room
	check("grown in place", x, xHeld)
	if &x.view[0] != &w.view[0] || &x.KeyCodes(cols, dom)[0] != &w.KeyCodes(cols, dom)[0] {
		t.Error("the first Extend of a view with room copied its rows or codes")
	}
	y, yHeld := grow(w, wHeld, 60) // w's second Extend copies
	check("second extension", y, yHeld)
	if &y.view[0] == &w.view[0] || &y.KeyCodes(cols, dom)[0] == &w.KeyCodes(cols, dom)[0] {
		t.Error("a second Extend of one view shares its rows or codes")
	}
	check("first extension after the second", w, wHeld)
	check("grown in place after the second extension", x, xHeld)
	a := x.Alias()
	z, zHeld := grow(a, xHeld, 80)
	check("extended alias", z, zHeld)
	if &z.view[0] == &x.view[0] {
		t.Error("an alias's Extend grew into the view it aliases")
	}
	u, uHeld := grow(x, xHeld, 100)
	check("extension beside an extended alias", u, uHeld)
	check("extended alias after its original grew", z, zHeld)
}

// TestExtendInPlaceConcurrent reads a view's rows and codes from several
// goroutines while others build the codes of the view its first Extend
// grew in place, sharing its storage, and of the copy a second Extend
// made: the grown codes land past the parent's prefix, so no goroutine
// sees another's write (run under -race), and every view reads its own
// rows' codes.
func TestExtendInPlaceConcurrent(t *testing.T) {
	base := keyedRelation(rand.New(rand.NewSource(7)), "R", 400)
	dom := NewMemoKeyDomain()
	cols := []int{0}
	v := base.Subset("V", seq(50)).Extend(base, seq(100)[50:]) // a copy with room
	parent := slices.Clone(v.KeyCodes(cols, dom))
	inPlace := v.Extend(base, seq(200)[100:])
	copied := v.Extend(base, seq(400)[300:])
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch g % 3 {
			case 0:
				if got := v.KeyCodes(cols, dom); !slices.Equal(got, parent) {
					t.Errorf("goroutine %d: the parent's codes changed", g)
				}
			case 1:
				inPlace.KeyCodes(cols, dom)
			default:
				copied.KeyCodes(cols, dom)
			}
		}()
	}
	wg.Wait()
	for _, c := range []struct {
		v    *Relation
		rows []int
	}{{inPlace, seq(200)}, {copied, append(seq(100), seq(400)[300:]...)}} {
		if got, want := c.v.KeyCodes(cols, dom), base.Subset("F", c.rows).KeyCodes(cols, dom); !slices.Equal(got, want) {
			t.Errorf("a grown view codes %v, a fresh view %v", got, want)
		}
	}
	if &inPlace.view[0] != &v.view[0] {
		t.Error("the first Extend of a view with room copied its rows")
	}
}
