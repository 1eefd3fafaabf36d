package sketch

import (
	"maps"
	"math"
)

// This file implements KMV (k-minimum-values) distinct summaries: the
// per-column companion of the AGMS sketches in the tiered synopsis. Each
// summary tracks the k distinct values with the smallest hashes, with a
// multiplicity counter per tracked value so well-formed deletions of
// still-present duplicates keep the summary exact.
//
// The estimator is the classical order-statistics one: normalizing hashes
// to (0, 1), the k-th smallest hash u_(k) of D distinct values satisfies
// E[u_(k)] ≈ k/(D+1), so (k−1)/u_(k) is (nearly) unbiased for D. Below k
// distinct values the summary holds every value and the count is exact.

// Distinct is a KMV distinct-count summary of one attribute under an
// insert/delete stream.
type Distinct struct {
	k        int
	seed     int64
	tracked  map[uint64]kmvEntry // keyed by the raw 64-bit value
	evicted  bool                // a value has ever been pushed out by a smaller hash
	degraded bool                // a tracked value died after an eviction; gaps may exist
	// maxVal and maxHash name the tracked value with the largest hash,
	// ties broken by the larger raw value (meaningless while nothing is
	// tracked). They are kept current on every update, so reads never
	// write and a full summary rejects a value without scanning.
	maxVal, maxHash uint64
}

// kmvEntry is one tracked distinct value.
type kmvEntry struct {
	hash  uint64
	count int64
}

// NewDistinct creates a KMV summary keeping the k smallest-hashed distinct
// values (default 256 when k < 1). The seed perturbs the value→hash map so
// independent summaries can be built over the same data.
func NewDistinct(k int, seed int64) *Distinct {
	if k < 1 {
		k = 256
	}
	return &Distinct{k: k, seed: seed, tracked: make(map[uint64]kmvEntry)}
}

// K returns the summary's capacity in distinct values.
func (d *Distinct) K() int { return d.k }

// hash maps a value to a uniform 64-bit hash, seed-perturbed.
func (d *Distinct) hash(value uint64) uint64 {
	state := value ^ uint64(d.seed)*0x9e3779b97f4a7c15
	return splitmix64(&state)
}

// above reports whether (hash, value) orders after the tracked maximum:
// by hash, ties broken by the raw value so eviction is deterministic.
func (d *Distinct) above(value, hash uint64) bool {
	return hash > d.maxHash || (hash == d.maxHash && value > d.maxVal)
}

// rescan finds the tracked maximum afresh, after it left the summary.
func (d *Distinct) rescan() {
	first := true
	for v, e := range d.tracked {
		if first || d.above(v, e.hash) {
			d.maxVal, d.maxHash = v, e.hash
			first = false
		}
	}
}

// Add records one occurrence of the value (use relation.Value.Hash() or
// the raw attribute value, matching the AGMS sketch convention).
func (d *Distinct) Add(value uint64) {
	if e, ok := d.tracked[value]; ok {
		e.count++
		d.tracked[value] = e
		return
	}
	d.insert(value, d.hash(value))
}

// insert records the first occurrence of an untracked value with the
// given hash.
func (d *Distinct) insert(value, hash uint64) {
	if len(d.tracked) < d.k {
		if len(d.tracked) == 0 || d.above(value, hash) {
			d.maxVal, d.maxHash = value, hash
		}
		d.tracked[value] = kmvEntry{hash: hash, count: 1}
		return
	}
	d.evicted = true
	if hash >= d.maxHash {
		return // the new value itself is the one kept out
	}
	delete(d.tracked, d.maxVal)
	d.tracked[value] = kmvEntry{hash: hash, count: 1}
	d.rescan()
}

// Remove records the deletion of one occurrence of the value. When the
// last occurrence of a tracked value dies after any eviction has ever
// happened, the summary can no longer know which evicted value should take
// the freed slot and marks itself Degraded; estimates remain usable but
// drift low under sustained churn.
func (d *Distinct) Remove(value uint64) {
	e, ok := d.tracked[value]
	if !ok {
		return // never tracked (or already evicted); nothing to maintain
	}
	if e.count--; e.count > 0 {
		d.tracked[value] = e
		return
	}
	delete(d.tracked, value)
	if value == d.maxVal {
		d.rescan()
	}
	if d.evicted {
		d.degraded = true
	}
}

// Degraded reports whether deletions have removed tracked values the
// summary cannot backfill (estimates may be biased low since then).
func (d *Distinct) Degraded() bool { return d.degraded }

// Tracked returns the current number of tracked distinct values.
func (d *Distinct) Tracked() int { return len(d.tracked) }

// Estimate returns the estimated number of distinct values seen (net of
// well-formed deletions). With fewer than k tracked values and no
// evictions the count is exact; otherwise it is the KMV order-statistics
// estimate (k−1)/u_(k).
func (d *Distinct) Estimate() float64 {
	n := len(d.tracked)
	if n == 0 {
		return 0
	}
	if n < d.k && !d.evicted {
		return float64(n)
	}
	u := (float64(d.maxHash) + 1) / math.Exp2(64) // normalize to (0, 1]
	return float64(n-1) / u
}

// Bytes reports the summary's resident storage.
func (d *Distinct) Bytes() int {
	// Per tracked value: the map key, the hash and the counter.
	return 32 + len(d.tracked)*24
}

// Clone returns an independently updatable copy.
func (d *Distinct) Clone() *Distinct {
	out := *d
	out.tracked = maps.Clone(d.tracked)
	return &out
}
