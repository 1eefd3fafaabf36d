package workload

import (
	"fmt"
	"math/rand"

	"relest/internal/relation"
)

// ClusterSpec describes clustered, positively correlated join-attribute
// data in the style of the Vitter–Wang generator as extended by Dobra et
// al.: tuples concentrate in a small number of regions of the attribute
// domain, region weights are Zipf(ZInter)-skewed, values within a region
// are Zipf(ZIntra)-distributed, and the second relation's regions are the
// first's with their centers perturbed — clustered and correlated, but not
// perfectly so.
type ClusterSpec struct {
	Regions int     // number of clusters (default 10)
	Domain  int     // attribute domain size (default 1024)
	WidthLo int     // minimum region width (default Domain/64, ≥ 1)
	WidthHi int     // maximum region width (default Domain/16)
	ZInter  float64 // skew across regions (default 1.0)
	ZIntra  float64 // skew within a region (default 0.0 = uniform)
	Perturb float64 // second relation's center shift as a fraction of region width (default 0.5)
	N1, N2  int     // relation cardinalities
}

func (s ClusterSpec) withDefaults() ClusterSpec {
	if s.Regions <= 0 {
		s.Regions = 10
	}
	if s.Domain <= 0 {
		s.Domain = 1024
	}
	if s.WidthLo <= 0 {
		s.WidthLo = max(1, s.Domain/64)
	}
	if s.WidthHi < s.WidthLo {
		s.WidthHi = max(s.WidthLo, s.Domain/16)
	}
	//lint:ignore floateq unset-option sentinel: the zero value marks "use the default", exact by construction
	if s.ZInter == 0 {
		s.ZInter = 1.0
	}
	//lint:ignore floateq unset-option sentinel: the zero value marks "use the default", exact by construction
	if s.Perturb == 0 {
		s.Perturb = 0.5
	}
	return s
}

type region struct {
	lo, hi int // inclusive value interval
}

// ClusteredPair generates the correlated clustered pair (R1, R2).
func ClusteredPair(rng *rand.Rand, spec ClusterSpec) (*relation.Relation, *relation.Relation) {
	spec = spec.withDefaults()
	if spec.N1 < 0 || spec.N2 < 0 {
		panic(fmt.Sprintf("workload: negative cardinalities %d/%d", spec.N1, spec.N2))
	}
	// Regions of R1: random centers and widths.
	regs1 := make([]region, spec.Regions)
	regs2 := make([]region, spec.Regions)
	for i := range regs1 {
		w := spec.WidthLo
		if spec.WidthHi > spec.WidthLo {
			w += rng.Intn(spec.WidthHi - spec.WidthLo + 1)
		}
		c := rng.Intn(spec.Domain)
		regs1[i] = clampRegion(c, w, spec.Domain)
		// R2's region: same width, center shifted by ±Perturb·w.
		shift := int((rng.Float64()*2 - 1) * spec.Perturb * float64(w))
		regs2[i] = clampRegion(c+shift, w, spec.Domain)
	}
	// Region weights shared by both relations (the correlation).
	w1 := ZipfFrequencies(spec.ZInter, spec.Regions, spec.N1)
	w2 := ZipfFrequencies(spec.ZInter, spec.Regions, spec.N2)

	build := func(name string, regs []region, perRegion []int) *relation.Relation {
		r := relation.New(name, JoinSchema())
		id := int64(0)
		for ri, cnt := range perRegion {
			reg := regs[ri]
			width := reg.hi - reg.lo + 1
			counts := ZipfFrequencies(spec.ZIntra, width, cnt)
			// Random rank→offset mapping within the region.
			perm := rng.Perm(width)
			for rank, c := range counts {
				v := int64(reg.lo + perm[rank])
				for k := 0; k < c; k++ {
					r.MustAppend(relation.Tuple{relation.Int(v), relation.Int(id)})
					id++
				}
			}
		}
		return r.Subset(name, rng.Perm(r.Len()))
	}
	return build("R1", regs1, w1), build("R2", regs2, w2)
}

func clampRegion(center, width, domain int) region {
	lo := center - width/2
	if lo < 0 {
		lo = 0
	}
	hi := lo + width - 1
	if hi >= domain {
		hi = domain - 1
		lo = max(0, hi-width+1)
	}
	return region{lo: lo, hi: hi}
}
