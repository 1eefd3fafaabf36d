package estimator

import (
	"math/rand"
	"testing"
	"testing/quick"

	"relest/internal/algebra"
	"relest/internal/relation"
)

// Property-based tests (testing/quick) for the estimator core: exhaustive
// unbiasedness over randomly generated micro-universes — every relation
// instance, predicate threshold and sample size the generator produces must
// satisfy E[estimate] == exact COUNT exactly.

// quickUniverse builds a random tiny catalog of two relations.
func quickUniverse(rng *rand.Rand) (*relation.Relation, *relation.Relation) {
	mk := func(name string, n int) *relation.Relation {
		r := relation.New(name, intSchema("a", "id"))
		for i := 0; i < n; i++ {
			r.MustAppend(relation.Tuple{
				relation.Int(int64(rng.Intn(4))),
				relation.Int(int64(i)),
			})
		}
		return r
	}
	return mk("R", 3+rng.Intn(3)), mk("S", 3+rng.Intn(2))
}

func TestQuickSelectionUnbiased(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, _ := quickUniverse(rng)
		threshold := int64(rng.Intn(5))
		e := algebra.Must(algebra.Select(algebra.BaseOf(r),
			algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(threshold)}))
		want, err := algebra.Count(e, algebra.MapCatalog{"R": r})
		if err != nil {
			return false
		}
		n := 1 + rng.Intn(r.Len())
		var sum float64
		count := 0
		subsets(r.Len(), n, func(rows []int) {
			syn := NewSynopsis()
			if err := syn.AddSample(r.Subset("R", rows), r.Len()); err != nil {
				panic(err)
			}
			est, err := countOf(e, syn, Options{Variance: VarNone})
			if err != nil {
				panic(err)
			}
			sum += est.Value
			count++
		})
		return almostEqual(sum/float64(count), float64(want), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinUnbiased(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, s := quickUniverse(rng)
		e := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(s),
			[]algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
		want, err := algebra.Count(e, algebra.MapCatalog{"R": r, "S": s})
		if err != nil {
			return false
		}
		nr := 1 + rng.Intn(r.Len())
		ns := 1 + rng.Intn(s.Len())
		var sum float64
		count := 0
		subsets(r.Len(), nr, func(rrows []int) {
			rr := append([]int{}, rrows...)
			subsets(s.Len(), ns, func(srows []int) {
				syn := NewSynopsis()
				if err := syn.AddSample(r.Subset("R", rr), r.Len()); err != nil {
					panic(err)
				}
				if err := syn.AddSample(s.Subset("S", srows), s.Len()); err != nil {
					panic(err)
				}
				est, err := countOf(e, syn, Options{Variance: VarNone})
				if err != nil {
					panic(err)
				}
				sum += est.Value
				count++
			})
		})
		return almostEqual(sum/float64(count), float64(want), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickSetOpsUnbiased(t *testing.T) {
	f := func(seed int64, opPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		// Overlapping duplicate-free relations with equal layouts.
		r := relation.New("R", intSchema("a", "id"))
		s := relation.New("S", intSchema("a", "id"))
		n := 4 + rng.Intn(2)
		for i := 0; i < n; i++ {
			t := relation.Tuple{relation.Int(int64(rng.Intn(3))), relation.Int(int64(i))}
			r.MustAppend(t)
			if rng.Intn(2) == 0 {
				s.MustAppend(t)
			} else {
				s.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(3))), relation.Int(int64(100 + i))})
			}
		}
		var e *algebra.Expr
		switch opPick % 3 {
		case 0:
			e = algebra.Must(algebra.Union(algebra.BaseOf(r), algebra.BaseOf(s)))
		case 1:
			e = algebra.Must(algebra.Intersect(algebra.BaseOf(r), algebra.BaseOf(s)))
		default:
			e = algebra.Must(algebra.Diff(algebra.BaseOf(r), algebra.BaseOf(s)))
		}
		want, err := algebra.Count(e, algebra.MapCatalog{"R": r, "S": s})
		if err != nil {
			return false
		}
		var sum float64
		count := 0
		subsets(r.Len(), 2, func(rrows []int) {
			rr := append([]int{}, rrows...)
			subsets(s.Len(), 2, func(srows []int) {
				syn := NewSynopsis()
				if err := syn.AddSample(r.Subset("R", rr), r.Len()); err != nil {
					panic(err)
				}
				if err := syn.AddSample(s.Subset("S", srows), s.Len()); err != nil {
					panic(err)
				}
				est, err := countOf(e, syn, Options{Variance: VarNone})
				if err != nil {
					panic(err)
				}
				sum += est.Value
				count++
			})
		})
		return almostEqual(sum/float64(count), float64(want), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickSumUnbiased(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, s := quickUniverse(rng)
		e := algebra.Must(algebra.Join(algebra.BaseOf(r), algebra.BaseOf(s),
			[]algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
		want := exactSumQuick(e, algebra.MapCatalog{"R": r, "S": s}, "id")
		var sum float64
		count := 0
		subsets(r.Len(), 2, func(rrows []int) {
			rr := append([]int{}, rrows...)
			subsets(s.Len(), 2, func(srows []int) {
				syn := NewSynopsis()
				if err := syn.AddSample(r.Subset("R", rr), r.Len()); err != nil {
					panic(err)
				}
				if err := syn.AddSample(s.Subset("S", srows), s.Len()); err != nil {
					panic(err)
				}
				est, err := sumOf(e, "id", syn, Options{Variance: VarNone})
				if err != nil {
					panic(err)
				}
				sum += est.Value
				count++
			})
		})
		return almostEqual(sum/float64(count), want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func exactSumQuick(e *algebra.Expr, cat algebra.Catalog, col string) float64 {
	res, err := algebra.Eval(e, cat)
	if err != nil {
		panic(err)
	}
	pos := res.Schema().MustColumnIndex(col)
	total := 0.0
	res.Each(func(i int, t relation.Tuple) bool {
		if !t[pos].IsNull() {
			total += t[pos].Float64()
		}
		return true
	})
	return total
}
