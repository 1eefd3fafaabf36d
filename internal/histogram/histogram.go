// Package histogram implements classical one-dimensional equi-width and
// equi-depth histograms over integer attribute domains, with the
// System-R-era join estimate (uniform spread within buckets, containment
// across relations). It is the second baseline the sampling estimators are
// compared against: the synopsis a 1988-vintage optimizer would actually
// have had.
package histogram

import (
	"fmt"
	"sort"
)

// Kind selects the bucketing strategy.
type Kind int

// Histogram kinds.
const (
	// EquiWidth buckets split the value range into equal-width intervals.
	EquiWidth Kind = iota
	// EquiDepth buckets hold (approximately) equal tuple counts.
	EquiDepth
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case EquiWidth:
		return "equi-width"
	case EquiDepth:
		return "equi-depth"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Bucket summarizes one value interval [Lo, Hi] (inclusive, integer
// domain): the number of tuples and the number of distinct values falling
// in it.
type Bucket struct {
	Lo, Hi   int64
	Count    float64
	Distinct float64
}

// Width returns the number of integer values the bucket spans.
func (b Bucket) Width() float64 { return float64(b.Hi - b.Lo + 1) }

// Histogram is a 1-D histogram over an integer attribute.
type Histogram struct {
	kind    Kind
	buckets []Bucket
	total   float64
}

// Build constructs a histogram with the given number of buckets from the
// attribute values. Values may repeat (they are tuple occurrences).
func Build(kind Kind, values []int64, buckets int) (*Histogram, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("histogram: bucket count %d < 1", buckets)
	}
	if len(values) == 0 {
		return &Histogram{kind: kind}, nil
	}
	sorted := append([]int64(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var bs []Bucket
	switch kind {
	case EquiWidth:
		lo, hi := sorted[0], sorted[len(sorted)-1]
		span := hi - lo + 1
		if int64(buckets) > span {
			buckets = int(span)
		}
		width := span / int64(buckets)
		rem := span % int64(buckets)
		cur := lo
		for i := 0; i < buckets; i++ {
			w := width
			if int64(i) < rem {
				w++
			}
			bs = append(bs, Bucket{Lo: cur, Hi: cur + w - 1})
			cur += w
		}
		bi := 0
		var prev int64
		first := true
		for _, v := range sorted {
			for v > bs[bi].Hi {
				bi++
			}
			bs[bi].Count++
			if first || v != prev {
				bs[bi].Distinct++
			}
			prev, first = v, false
		}
	case EquiDepth:
		per := len(sorted) / buckets
		if per == 0 {
			per = 1
		}
		i := 0
		for i < len(sorted) {
			j := i + per
			if j > len(sorted) {
				j = len(sorted)
			}
			// Extend the bucket so equal values never straddle a boundary.
			for j < len(sorted) && sorted[j] == sorted[j-1] {
				j++
			}
			b := Bucket{Lo: sorted[i], Hi: sorted[j-1]}
			b.Count = float64(j - i)
			d := 1.0
			for k := i + 1; k < j; k++ {
				if sorted[k] != sorted[k-1] {
					d++
				}
			}
			b.Distinct = d
			bs = append(bs, b)
			i = j
		}
	default:
		return nil, fmt.Errorf("histogram: unknown kind %v", kind)
	}
	h := &Histogram{kind: kind, buckets: bs, total: float64(len(values))}
	return h, nil
}

// Kind returns the bucketing strategy.
func (h *Histogram) Kind() Kind { return h.kind }

// Buckets returns the bucket list (not to be modified).
func (h *Histogram) Buckets() []Bucket { return h.buckets }

// Total returns the number of tuples summarized.
func (h *Histogram) Total() float64 { return h.total }

// Size returns the synopsis size in stored scalars (4 per bucket), for
// equal-space comparisons.
func (h *Histogram) Size() int { return 4 * len(h.buckets) }

// EstimateJoin estimates the equi-join size Σ_v f₁(v)·f₂(v) between the
// attributes summarized by h and g, using bucket-overlap alignment with
// uniform spread and the standard containment assumption: within an
// overlap segment the matching distinct values are the smaller of the two
// sides' distinct estimates, and per-value frequencies are count/distinct.
func EstimateJoin(h, g *Histogram) float64 {
	est := 0.0
	for _, a := range h.buckets {
		for _, b := range g.buckets {
			lo, hi := max(a.Lo, b.Lo), min(a.Hi, b.Hi)
			if hi < lo {
				continue
			}
			w := float64(hi - lo + 1)
			// Scale each side's count and distinct into the overlap.
			c1 := a.Count * w / a.Width()
			d1 := a.Distinct * w / a.Width()
			c2 := b.Count * w / b.Width()
			d2 := b.Distinct * w / b.Width()
			if d1 <= 0 || d2 <= 0 {
				continue
			}
			dmin := d1
			if d2 < dmin {
				dmin = d2
			}
			// dmin matching values, each contributing (c1/d1)·(c2/d2).
			est += dmin * (c1 / d1) * (c2 / d2)
		}
	}
	return est
}
