package sketch

import (
	"maps"
	"math"
	"math/rand"
	"testing"
)

func TestDistinctExactBelowK(t *testing.T) {
	d := NewDistinct(64, 1)
	for v := uint64(0); v < 40; v++ {
		d.Add(v)
		d.Add(v) // duplicates must not inflate the count
	}
	if got := d.Estimate(); got != 40 {
		t.Errorf("estimate %v, want exactly 40 below k", got)
	}
	if d.Tracked() != 40 {
		t.Errorf("tracked %d, want 40", d.Tracked())
	}
	if d.Degraded() {
		t.Error("degraded without any eviction")
	}
}

func TestDistinctEstimateAboveK(t *testing.T) {
	const n = 5000
	d := NewDistinct(256, 7)
	for v := uint64(0); v < n; v++ {
		d.Add(v)
	}
	if d.Tracked() != 256 {
		t.Fatalf("tracked %d, want k=256 after %d distinct inserts", d.Tracked(), n)
	}
	got := d.Estimate()
	if math.Abs(got-n)/n > 0.25 {
		t.Errorf("estimate %v, want %v (±25%%; KMV stderr ≈ 1/√(k−2) ≈ 6%%)", got, float64(n))
	}
}

func TestDistinctRemoveKeepsExact(t *testing.T) {
	// Insert/delete churn below k: the summary stays exact and never
	// degrades.
	d := NewDistinct(64, 3)
	for v := uint64(0); v < 30; v++ {
		d.Add(v)
	}
	for v := uint64(0); v < 10; v++ {
		d.Remove(v)
	}
	if got := d.Estimate(); got != 20 {
		t.Errorf("estimate %v, want exactly 20", got)
	}
	if d.Degraded() {
		t.Error("degraded below capacity")
	}
	// Multiplicity: deleting one of two occurrences keeps the value.
	d.Add(10)    // second occurrence of a survivor
	d.Remove(10) // net count back to 1
	if got := d.Estimate(); got != 20 {
		t.Errorf("estimate %v after multiplicity churn, want 20", got)
	}
}

func TestDistinctDegradesAfterEvictionAndDeath(t *testing.T) {
	d := NewDistinct(16, 5)
	for v := uint64(0); v < 100; v++ {
		d.Add(v)
	}
	if !d.evicted {
		t.Fatal("no eviction after 100 inserts into k=16")
	}
	if d.Degraded() {
		t.Fatal("degraded before any tracked value died")
	}
	// Kill every tracked value; at least the first death past the
	// evictions must mark the summary degraded.
	for v := uint64(0); v < 100; v++ {
		d.Remove(v)
	}
	if !d.Degraded() {
		t.Error("tracked deaths after evictions must degrade the summary")
	}
}

func TestDistinctRemoveUntracked(t *testing.T) {
	d := NewDistinct(8, 2)
	d.Add(1)
	d.Remove(999) // never seen: must be a no-op
	if got := d.Estimate(); got != 1 {
		t.Errorf("estimate %v, want 1", got)
	}
	if d.Degraded() {
		t.Error("removing an untracked value must not degrade")
	}
}

func TestDistinctCloneIndependent(t *testing.T) {
	d := NewDistinct(32, 11)
	for v := uint64(0); v < 20; v++ {
		d.Add(v)
	}
	c := d.Clone()
	if c.Estimate() != d.Estimate() || c.Tracked() != d.Tracked() {
		t.Fatal("clone disagrees before divergence")
	}
	c.Add(100)
	c.Remove(0)
	if d.Estimate() != 20 {
		t.Errorf("original changed after mutating clone: %v", d.Estimate())
	}
	if c.Estimate() != 20 { // +1 −1
		t.Errorf("clone estimate %v, want 20", c.Estimate())
	}
}

func TestDistinctDeterministicAcrossInsertOrder(t *testing.T) {
	// Same value set in two different orders: identical tracked sets and
	// estimates (eviction ties break on the raw value, not map order).
	a := NewDistinct(32, 13)
	b := NewDistinct(32, 13)
	for v := uint64(0); v < 500; v++ {
		a.Add(v)
	}
	for v := uint64(500); v > 0; v-- {
		b.Add(v - 1)
	}
	if a.Estimate() != b.Estimate() {
		t.Errorf("insert order changed the estimate: %v vs %v", a.Estimate(), b.Estimate())
	}
}

func TestDistinctDefaultsAndBytes(t *testing.T) {
	d := NewDistinct(0, 1)
	if d.K() != 256 {
		t.Errorf("default k %d, want 256", d.K())
	}
	if d.Bytes() <= 0 {
		t.Errorf("Bytes() = %d, want > 0", d.Bytes())
	}
	before := d.Bytes()
	for v := uint64(0); v < 10; v++ {
		d.Add(v)
	}
	if d.Bytes() <= before {
		t.Errorf("Bytes() did not grow with tracked values: %d -> %d", before, d.Bytes())
	}
	if d.Estimate() != 10 {
		t.Errorf("estimate %v, want 10", d.Estimate())
	}
	empty := NewDistinct(4, 9)
	if empty.Estimate() != 0 {
		t.Errorf("empty estimate %v, want 0", empty.Estimate())
	}
}

// naiveDistinct is the KMV summary the way it reads on paper: every
// decision scans the tracked values for the largest (hash, value) pair.
// Distinct must agree with it exactly.
type naiveDistinct struct {
	k                 int
	hash              func(uint64) uint64
	tracked           map[uint64]kmvEntry
	evicted, degraded bool
}

func (n *naiveDistinct) max() (value, hash uint64) {
	first := true
	for v, e := range n.tracked {
		if first || e.hash > hash || (e.hash == hash && v > value) {
			value, hash, first = v, e.hash, false
		}
	}
	return value, hash
}

func (n *naiveDistinct) add(v uint64) {
	if e, ok := n.tracked[v]; ok {
		e.count++
		n.tracked[v] = e
		return
	}
	h := n.hash(v)
	if len(n.tracked) < n.k {
		n.tracked[v] = kmvEntry{hash: h, count: 1}
		return
	}
	n.evicted = true
	if mv, mh := n.max(); h < mh {
		delete(n.tracked, mv)
		n.tracked[v] = kmvEntry{hash: h, count: 1}
	}
}

func (n *naiveDistinct) remove(v uint64) {
	e, ok := n.tracked[v]
	if !ok {
		return
	}
	if e.count--; e.count > 0 {
		n.tracked[v] = e
		return
	}
	delete(n.tracked, v)
	n.degraded = n.degraded || n.evicted
}

func (n *naiveDistinct) estimate() float64 {
	if len(n.tracked) == 0 {
		return 0
	}
	if len(n.tracked) < n.k && !n.evicted {
		return float64(len(n.tracked))
	}
	_, mh := n.max()
	return float64(len(n.tracked)-1) / ((float64(mh) + 1) / math.Exp2(64))
}

// TestDistinctMatchesNaive runs random Add/Remove sequences through
// Distinct, which keeps its maximum, and through the scanning reference:
// the estimate's bits, the tracked set and the degraded flag agree after
// every event. Hashes are squeezed into a few buckets so equal hashes of
// distinct values (the value tie-break) occur often, and the sequences
// run far past k and into the degraded state. A clone taken midway
// agrees with the reference at the moment it was taken.
func TestDistinctMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 300 && !t.Failed(); trial++ {
		k := 1 + rng.Intn(8)
		d := NewDistinct(k, int64(trial))
		buckets := uint64(1 + rng.Intn(12))
		if trial%4 == 0 {
			buckets = math.MaxUint64 // the real hash, no forced ties
		}
		hash := func(v uint64) uint64 { return d.hash(v) % buckets }
		ref := &naiveDistinct{k: k, hash: hash, tracked: map[uint64]kmvEntry{}}
		domain := uint64(2 + rng.Intn(40))
		var clone *Distinct
		var cloneWant float64
		for step := 0; step < 400; step++ {
			v := uint64(rng.Int63n(int64(domain)))
			if rng.Intn(3) == 0 {
				d.Remove(v)
				ref.remove(v)
			} else {
				if _, ok := d.tracked[v]; ok {
					d.Add(v) // a tracked value's count grows without a hash
				} else {
					d.insert(v, hash(v))
				}
				ref.add(v)
			}
			if got, want := d.Estimate(), ref.estimate(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d: estimate %v, reference %v", trial, step, got, want)
			}
			if d.Tracked() != len(ref.tracked) || d.Degraded() != ref.degraded || !maps.Equal(d.tracked, ref.tracked) {
				t.Fatalf("trial %d step %d: tracked %v degraded %v, reference %v degraded %v",
					trial, step, d.tracked, d.Degraded(), ref.tracked, ref.degraded)
			}
			if step == 200 {
				clone, cloneWant = d.Clone(), ref.estimate()
			}
		}
		if math.Float64bits(clone.Estimate()) != math.Float64bits(cloneWant) {
			t.Fatalf("trial %d: the clone moved with its original: %v, want %v", trial, clone.Estimate(), cloneWant)
		}
	}
}
