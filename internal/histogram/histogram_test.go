package histogram

import (
	"math"
	"math/rand"
	"testing"
)

func TestBuildEquiWidth(t *testing.T) {
	vals := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h, err := Build(EquiWidth, vals, 5)
	if err != nil {
		t.Fatal(err)
	}
	bs := h.Buckets()
	if len(bs) != 5 {
		t.Fatalf("buckets %d", len(bs))
	}
	var total float64
	for _, b := range bs {
		if b.Hi-b.Lo != 1 {
			t.Errorf("bucket [%d,%d] not width 2", b.Lo, b.Hi)
		}
		total += b.Count
	}
	if total != 10 || h.Total() != 10 {
		t.Errorf("counts: %v / %v", total, h.Total())
	}
	if h.Size() != 20 {
		t.Errorf("size %d", h.Size())
	}
}

func TestBuildEquiWidthMoreBucketsThanSpan(t *testing.T) {
	h, err := Build(EquiWidth, []int64{5, 5, 6}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Buckets()) != 2 {
		t.Errorf("buckets %d, want clamped to span 2", len(h.Buckets()))
	}
}

func TestBuildEquiDepth(t *testing.T) {
	// 100 values: value v repeated v times-ish; equal values must not
	// straddle bucket boundaries.
	var vals []int64
	for v := int64(1); v <= 13; v++ {
		for i := int64(0); i < v; i++ {
			vals = append(vals, v)
		}
	}
	h, err := Build(EquiDepth, vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	bs := h.Buckets()
	for i := 1; i < len(bs); i++ {
		if bs[i].Lo <= bs[i-1].Hi {
			t.Errorf("buckets overlap: [%d,%d] then [%d,%d]", bs[i-1].Lo, bs[i-1].Hi, bs[i].Lo, bs[i].Hi)
		}
	}
	var total float64
	for _, b := range bs {
		total += b.Count
	}
	if total != float64(len(vals)) {
		t.Errorf("total %v != %d", total, len(vals))
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(EquiWidth, []int64{1}, 0); err == nil {
		t.Error("zero buckets should fail")
	}
	h, err := Build(EquiDepth, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 0 || EstimateJoin(h, h) != 0 {
		t.Error("empty histogram should estimate 0")
	}
	if _, err := Build(Kind(99), []int64{1}, 1); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestEstimateJoinUniformIsExact(t *testing.T) {
	// Uniform attributes with identical domains: the histogram join
	// estimate under containment is exact.
	var a, b []int64
	for v := int64(0); v < 50; v++ {
		a = append(a, v, v) // each value twice
		b = append(b, v)    // each value once
	}
	ha, _ := Build(EquiWidth, a, 10)
	hb, _ := Build(EquiWidth, b, 10)
	// True join size: Σ 2·1 = 100.
	got := EstimateJoin(ha, hb)
	if math.Abs(got-100) > 1e-6 {
		t.Errorf("uniform join estimate %v, want 100", got)
	}
}

func TestEstimateJoinSkewReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	freq := func(z float64, n, domain int) map[int64]int64 {
		// crude zipf via rejection on rank probabilities
		probs := make([]float64, domain)
		var sum float64
		for i := range probs {
			probs[i] = 1 / math.Pow(float64(i+1), z)
			sum += probs[i]
		}
		out := map[int64]int64{}
		for i := 0; i < n; i++ {
			u := rng.Float64() * sum
			acc := 0.0
			for r, p := range probs {
				acc += p
				if u <= acc {
					out[int64(r)]++
					break
				}
			}
		}
		return out
	}
	fa := freq(1.0, 5000, 100)
	fb := freq(0.5, 5000, 100)
	var va, vb []int64
	var want float64
	for v, c := range fa {
		for i := int64(0); i < c; i++ {
			va = append(va, v)
		}
		want += float64(c) * float64(fb[v])
	}
	for v, c := range fb {
		for i := int64(0); i < c; i++ {
			vb = append(vb, v)
		}
	}
	ha, _ := Build(EquiDepth, va, 20)
	hb, _ := Build(EquiDepth, vb, 20)
	got := EstimateJoin(ha, hb)
	if got <= 0 {
		t.Fatalf("join estimate %v", got)
	}
	if got < want/5 || got > want*5 {
		t.Errorf("skewed join estimate %v too far from %v", got, want)
	}
}

func TestKindString(t *testing.T) {
	if EquiWidth.String() == "" || EquiDepth.String() == "" || Kind(9).String() == "" {
		t.Error("empty kind names")
	}
}
