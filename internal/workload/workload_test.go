package workload

import (
	"math"
	"math/rand"
	"testing"

	"relest/internal/relation"
)

func TestZipfFrequencies(t *testing.T) {
	counts := ZipfFrequencies(1.0, 10, 1000)
	if len(counts) != 10 {
		t.Fatalf("len %d", len(counts))
	}
	sum := 0
	for i, c := range counts {
		sum += c
		if i > 0 && c > counts[i-1] {
			t.Errorf("counts not non-increasing at %d: %v", i, counts)
		}
	}
	if sum != 1000 {
		t.Errorf("sum %d", sum)
	}
	// z=0 is uniform.
	u := ZipfFrequencies(0, 4, 100)
	for _, c := range u {
		if c != 25 {
			t.Errorf("uniform counts %v", u)
		}
	}
	// Higher skew concentrates mass at the head.
	s05 := ZipfFrequencies(0.5, 100, 10000)
	s15 := ZipfFrequencies(1.5, 100, 10000)
	if s15[0] <= s05[0] {
		t.Errorf("skew ordering: head(z=1.5)=%d vs head(z=0.5)=%d", s15[0], s05[0])
	}
	// Degenerate total.
	z := ZipfFrequencies(1, 5, 0)
	for _, c := range z {
		if c != 0 {
			t.Errorf("zero total gave %v", z)
		}
	}
}

func TestZipfFrequenciesPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { ZipfFrequencies(1, 0, 10) },
		func() { ZipfFrequencies(1, 5, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestZipfRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := ZipfRelation(rng, "R", 1.0, 50, 2000, MapRandom)
	if r.Len() != 2000 {
		t.Fatalf("len %d", r.Len())
	}
	if !r.RowsDistinct(r.Len()) {
		t.Error("generated relation has duplicate tuples (ids should be unique)")
	}
	// All values within the domain.
	pos := r.Schema().MustColumnIndex("a")
	r.Each(func(i int, tp relation.Tuple) bool {
		v := tp[pos].Int64()
		if v < 0 || v >= 50 {
			t.Fatalf("value %d outside domain", v)
		}
		return true
	})
	// Smooth mapping: most frequent value is 0.
	r2 := ZipfRelation(rng, "R", 2.0, 50, 2000, MapSmooth)
	freq := map[int64]int{}
	r2.Each(func(i int, tp relation.Tuple) bool {
		freq[tp[pos].Int64()]++
		return true
	})
	best, bestC := int64(-1), -1
	for v, c := range freq {
		if c > bestC {
			best, bestC = v, c
		}
	}
	if best != 0 {
		t.Errorf("smooth mapping: most frequent value %d, want 0", best)
	}
}

func TestJoinPairCorrelations(t *testing.T) {
	const domain, n = 100, 20000
	joint := func(corr Correlation) float64 {
		rng := rand.New(rand.NewSource(7))
		r1, r2 := JoinPair(rng, JoinPairSpec{
			Z1: 1.0, Z2: 1.0, Domain: domain, N1: n, N2: n, Correlation: corr,
		})
		return ExactJoinSize(r1, "a", r2, "a")
	}
	pos := joint(Positive)
	ind := joint(Independent)
	neg := joint(Negative)
	// Positive correlation aligns heavy hitters: much larger join than
	// independent; negative anti-aligns: smaller than independent.
	if !(pos > ind && ind > neg) {
		t.Errorf("join sizes pos=%v ind=%v neg=%v violate ordering", pos, ind, neg)
	}
}

func TestJoinPairPermuteWeakens(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	strong1, strong2 := JoinPair(rng, JoinPairSpec{Z1: 0.5, Z2: 1.0, Domain: 200, N1: 30000, N2: 30000, Correlation: Positive})
	weak1, weak2 := JoinPair(rng, JoinPairSpec{Z1: 0.5, Z2: 1.0, Domain: 200, N1: 30000, N2: 30000, Correlation: Positive, PermuteFrac: 0.5})
	strong := ExactJoinSize(strong1, "a", strong2, "a")
	weak := ExactJoinSize(weak1, "a", weak2, "a")
	if weak >= strong {
		t.Errorf("permuted pair join %v not weaker than strict positive %v", weak, strong)
	}
}

func TestClusteredPair(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spec := ClusterSpec{Regions: 10, Domain: 1024, N1: 5000, N2: 4000}
	r1, r2 := ClusteredPair(rng, spec)
	if r1.Len() != 5000 || r2.Len() != 4000 {
		t.Fatalf("sizes %d/%d", r1.Len(), r2.Len())
	}
	if !r1.RowsDistinct(r1.Len()) || !r2.RowsDistinct(r2.Len()) {
		t.Error("clustered relations must be duplicate-free")
	}
	// Clustering: the number of distinct values should be well below the
	// domain (tuples concentrate in ~10 regions of ≤ domain/16 width).
	distinct := map[int64]struct{}{}
	pos := r1.Schema().MustColumnIndex("a")
	r1.Each(func(i int, tp relation.Tuple) bool {
		v := tp[pos].Int64()
		if v < 0 || v >= 1024 {
			t.Fatalf("value %d outside domain", v)
		}
		distinct[v] = struct{}{}
		return true
	})
	if len(distinct) > 700 {
		t.Errorf("%d distinct values: data does not look clustered", len(distinct))
	}
	// Correlation: the pair should join much more than independent data
	// with the same marginal density would.
	j := ExactJoinSize(r1, "a", r2, "a")
	indep := float64(r1.Len()) * float64(r2.Len()) / 1024
	if j < indep {
		t.Errorf("clustered join %v below independence baseline %v", j, indep)
	}
}

func TestCompany(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	emp, dept := Company(rng, 3000, 12)
	if emp.Len() != 3000 || dept.Len() != 12 {
		t.Fatalf("sizes %d/%d", emp.Len(), dept.Len())
	}
	agePos := emp.Schema().MustColumnIndex("age")
	deptPos := emp.Schema().MustColumnIndex("dept_id")
	emp.Each(func(i int, tp relation.Tuple) bool {
		age := tp[agePos].Int64()
		if age < 18 || age > 67 {
			t.Fatalf("age %d out of range", age)
		}
		d := tp[deptPos].Int64()
		if d < 0 || d >= 12 {
			t.Fatalf("dept %d out of range", d)
		}
		return true
	})
	if !emp.RowsDistinct(emp.Len()) || !dept.RowsDistinct(dept.Len()) {
		t.Error("company relations must be duplicate-free")
	}
}

func TestStreamWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ops := Stream(rng, StreamSpec{Rel: "R", Ops: 5000, DeleteFrac: 0.3, Z: 1.0, Domain: 500})
	if len(ops) != 5000 {
		t.Fatalf("ops %d", len(ops))
	}
	live := map[string]bool{}
	deletes := 0
	for i, op := range ops {
		k := op.Tuple.Key(nil)
		if op.Delete {
			if !live[k] {
				t.Fatalf("op %d deletes a tuple that is not live", i)
			}
			delete(live, k)
			deletes++
		} else {
			if live[k] {
				t.Fatalf("op %d re-inserts a live tuple", i)
			}
			live[k] = true
		}
	}
	if deletes == 0 {
		t.Error("stream produced no deletions")
	}
	frac := float64(deletes) / float64(len(ops))
	if math.Abs(frac-0.3) > 0.05 {
		t.Errorf("delete fraction %.3f far from 0.3", frac)
	}
	// Materialize agrees with replay.
	mat := Materialize("R", ops)
	if mat.Len() != len(live) {
		t.Errorf("materialized %d, live %d", mat.Len(), len(live))
	}
}

func TestAttributeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	r := ZipfRelation(rng, "R", 0, 10, 100, MapSmooth)
	vals := AttributeValues(r, "a")
	if len(vals) != 100 {
		t.Fatalf("len %d", len(vals))
	}
	for _, v := range vals {
		if v < 0 || v >= 10 {
			t.Fatalf("value %d", v)
		}
	}
}

func TestExactJoinSizeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r1 := ZipfRelation(rng, "R1", 1, 20, 300, MapRandom)
	r2 := ZipfRelation(rng, "R2", 0.5, 20, 200, MapRandom)
	want := 0.0
	p1 := r1.Schema().MustColumnIndex("a")
	p2 := r2.Schema().MustColumnIndex("a")
	r1.Each(func(i int, t1 relation.Tuple) bool {
		r2.Each(func(j int, t2 relation.Tuple) bool {
			if t1[p1].Equal(t2[p2]) {
				want++
			}
			return true
		})
		return true
	})
	if got := ExactJoinSize(r1, "a", r2, "a"); got != want {
		t.Errorf("ExactJoinSize %v, brute force %v", got, want)
	}
}
