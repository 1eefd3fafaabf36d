package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"relest/internal/relation"
)

// Kernel ≡ closure: a predicate pushed down to one occurrence filters
// candidate lists through bindFilter — the typed relation.FilterCmp kernel
// for Cmp and And, the wrapped row closure for everything else — and must
// keep exactly the rows its row closure (bind) holds on.

// filterFixture builds a relation with one column of each kind — int,
// float, string and all-null — over small domains holding NULL cells,
// NaN, ±0, ±Inf and numeric strings, so every cross-kind and edge-case
// comparison occurs. With view set, it returns a Subset view that repeats
// and reorders rows instead of the base.
func filterFixture(rng *rand.Rand, n int, view bool) *relation.Relation {
	r := relation.New("R", relation.MustSchema(
		relation.Column{Name: "i", Kind: relation.KindInt},
		relation.Column{Name: "f", Kind: relation.KindFloat},
		relation.Column{Name: "s", Kind: relation.KindString},
		relation.Column{Name: "z", Kind: relation.KindNull},
	))
	ints := []int64{-1, 0, 1, 2, 3, math.MaxInt64}
	floats := []float64{math.Copysign(0, -1), 0, 1, 2, 2.5, math.NaN(), math.Inf(-1), math.Inf(1)}
	strs := []string{"", "a", "b", "2", "ab"}
	for k := 0; k < n; k++ {
		row := relation.Tuple{
			relation.Int(ints[rng.Intn(len(ints))]),
			relation.Float(floats[rng.Intn(len(floats))]),
			relation.Str(strs[rng.Intn(len(strs))]),
			relation.Null(),
		}
		for c := 0; c < 3; c++ {
			if rng.Intn(5) == 0 {
				row[c] = relation.Null()
			}
		}
		r.MustAppend(row)
	}
	if !view {
		return r
	}
	pos := make([]int, n+n/2)
	for k := range pos {
		pos[k] = rng.Intn(n)
	}
	return r.Subset("V", pos)
}

// filterConsts are the constants compared against: every kind, values
// equal to cells only across kinds (Int(2) against 2.0, Float(2) against
// 2), NaN, ±0, and values outside every column's domain.
var filterConsts = []relation.Value{
	relation.Null(),
	relation.Int(-1), relation.Int(0), relation.Int(2), relation.Int(9), relation.Int(math.MaxInt64),
	relation.Float(math.Copysign(0, -1)), relation.Float(2), relation.Float(2.5), relation.Float(math.NaN()),
	relation.Float(math.Inf(1)), relation.Float(1 << 63),
	relation.Str(""), relation.Str("2"), relation.Str("a"), relation.Str("zz"),
}

var filterOps = []CmpOp{EQ, NE, LT, LE, GT, GE}

// closureRows is the reference: the rows of list whose one-row slice the
// predicate's row closure holds on.
func closureRows(t *testing.T, p Predicate, r *relation.Relation, list []int) []int {
	t.Helper()
	eval, err := p.bind(r.Schema(), oneRow(r.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for _, i := range list {
		if eval([]relation.Row{r.Row(i)}) {
			want = append(want, i)
		}
	}
	return want
}

// filterRows runs the predicate's list filter over a copy of list.
func filterRows(t *testing.T, p Predicate, r *relation.Relation, list []int) []int {
	t.Helper()
	f, err := bindFilter(p, r.Schema(), oneRow(r.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	return f(r, slices.Clone(list))
}

// ascendingSubset returns a random ascending sublist of 0..n-1.
func ascendingSubset(rng *rand.Rand, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// TestCmpFilterMatchesClosure checks every column kind × constant kind ×
// operator, over a base relation and a view with repeated positions, on
// the whole row list and on an ascending sublist.
func TestCmpFilterMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, view := range []bool{false, true} {
		r := filterFixture(rng, 300, view)
		all := make([]int, r.Len())
		for i := range all {
			all[i] = i
		}
		lists := [][]int{all, ascendingSubset(rng, r.Len()), nil}
		for _, col := range []string{"i", "f", "s", "z"} {
			for _, val := range filterConsts {
				for _, op := range filterOps {
					p := Cmp{Col: col, Op: op, Val: val}
					for _, list := range lists {
						want, got := closureRows(t, p, r, list), filterRows(t, p, r, list)
						if !slices.Equal(got, want) {
							t.Fatalf("view=%v %s (%s constant): filter kept %d rows, closure %d\nfilter  %v\nclosure %v",
								view, p, val.Kind(), len(got), len(want), got, want)
						}
					}
				}
			}
		}
	}
}

// randomPred builds a random nest of And/Or/Not over Cmps (and, at the
// leaves, the occasional ColCmp, whose filter is its wrapped closure).
func randomPred(rng *rand.Rand, depth int) Predicate {
	cols := []string{"i", "f", "s", "z"}
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(6) == 0 {
			return ColCmp{A: cols[rng.Intn(3)], Op: filterOps[rng.Intn(6)], B: cols[rng.Intn(3)]}
		}
		return Cmp{Col: cols[rng.Intn(4)], Op: filterOps[rng.Intn(6)], Val: filterConsts[rng.Intn(len(filterConsts))]}
	}
	parts := make([]Predicate, rng.Intn(4)) // empty And is true, empty Or false
	for k := range parts {
		parts[k] = randomPred(rng, depth-1)
	}
	switch rng.Intn(3) {
	case 0:
		return And(parts)
	case 1:
		return Or(parts)
	default:
		return Not{P: randomPred(rng, depth-1)}
	}
}

// TestFilterNestsMatchClosure checks random And/Or/Not nests: And composes
// its parts' filters, and every other combinator filters through its row
// closure, so the kept rows must equal the closure's on base relations and
// views alike.
func TestFilterNestsMatchClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		r := filterFixture(rng, 1+rng.Intn(80), trial%2 == 1)
		list := ascendingSubset(rng, r.Len())
		p := randomPred(rng, 3)
		if want, got := closureRows(t, p, r, list), filterRows(t, p, r, list); !slices.Equal(got, want) {
			t.Fatalf("trial %d, %s: filter %v, closure %v", trial, fmt.Sprint(p), got, want)
		}
	}
}
