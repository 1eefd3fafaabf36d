package relation

// Index is a hash index mapping a composite key over a fixed column set to
// the row positions holding that key. It is the access path used by the
// exact evaluator's hash joins and by the estimators' sample-side joins.
//
// Since the columnar refactor the index is typed: keys are 64-bit hashes
// combined from the column vectors (Value.Hash per column, so Int(2) and
// Float(2.0) collide exactly as Equal demands), with collision verification
// against a bucket's exemplar row — no per-row key string is ever
// materialized. Rows with Equal key values land in one bucket; distinct key
// values that merely share a hash live on a chain and are disambiguated by
// typed comparison at build and probe time.
type Index struct {
	rel  *Relation
	cols []int

	byHash map[uint64]int32 // combined hash → first bucket on the chain
	groups []bucket         // buckets in first-seen (ascending row) order
}

// bucket is one distinct composite key: its rows in insertion order, an
// exemplar row for typed verification, and the chain link to the next
// bucket sharing the same 64-bit hash (-1 = none).
type bucket struct {
	head int // exemplar row position (first inserted)
	rows []int
	next int32
}

// hashSeed and hashStep combine per-column Value hashes into one composite
// key hash. The combination is order-sensitive and shared by every probe
// path, so build- and probe-side hashes agree by construction.
const (
	hashSeed = uint64(fnvOffset)
	hashStep = uint64(fnvPrime)
)

func combineHash(h, valueHash uint64) uint64 { return (h ^ valueHash) * hashStep }

// rowHash computes the composite hash of row i over ix.cols.
func (ix *Index) rowHash(i int) uint64 {
	h := hashSeed
	for _, c := range ix.cols {
		h = combineHash(h, ix.rel.hashAt(i, c))
	}
	return h
}

// rowsEqual reports whether rows i and j agree on every key column (typed,
// allocation-free: dictionary codes compare directly).
func (ix *Index) rowsEqual(i, j int) bool {
	pi, pj := ix.rel.phys(i), ix.rel.phys(j)
	for _, c := range ix.cols {
		if !ix.rel.cols[c].equalRows(pi, pj) {
			return false
		}
	}
	return true
}

// BuildIndex indexes relation r on the given column positions.
func BuildIndex(r *Relation, cols []int) *Index {
	return buildIndex(r, cols, r.Len(), func(i int) int { return i })
}

// BuildIndexRows indexes only the given row positions of r (in the given
// order), the access path term evaluation uses to index candidate lists
// without copying them into a new relation.
func BuildIndexRows(r *Relation, cols []int, rows []int) *Index {
	return buildIndex(r, cols, len(rows), func(i int) int { return rows[i] })
}

func buildIndex(r *Relation, cols []int, n int, rowAt func(int) int) *Index {
	ix := &Index{
		rel:    r,
		cols:   append([]int(nil), cols...),
		byHash: make(map[uint64]int32, n),
	}
	for i := 0; i < n; i++ {
		row := rowAt(i)
		h := ix.rowHash(row)
		first, exists := ix.byHash[h]
		if !exists {
			ix.byHash[h] = int32(len(ix.groups))
			ix.groups = append(ix.groups, bucket{head: row, rows: []int{row}, next: -1})
			continue
		}
		// Walk the collision chain for the row's key; extend the chain when
		// the hash is shared by a new distinct key.
		gi := first
		for {
			g := &ix.groups[gi]
			if ix.rowsEqual(g.head, row) {
				g.rows = append(g.rows, row)
				gi = -1
				break
			}
			if g.next < 0 {
				break
			}
			gi = g.next
		}
		if gi >= 0 {
			ni := int32(len(ix.groups))
			ix.groups = append(ix.groups, bucket{head: row, rows: []int{row}, next: -1})
			ix.groups[gi].next = ni
		}
	}
	return ix
}

// valuesHash computes the composite hash of probe values via Value.Hash —
// consistent with rowHash for Equal values.
func valuesHash(vals []Value) uint64 {
	h := hashSeed
	for _, v := range vals {
		h = combineHash(h, v.Hash())
	}
	return h
}

// LookupValues returns the row positions whose key columns Equal the probe
// values (positionally aligned with the index's column set). The returned
// slice is shared with the index and must not be modified. Allocation-free.
func (ix *Index) LookupValues(vals []Value) []int {
	gi, ok := ix.byHash[valuesHash(vals)]
	for ok {
		g := &ix.groups[gi]
		if ix.headEqualsValues(g.head, vals) {
			return g.rows
		}
		if g.next < 0 {
			return nil
		}
		gi = g.next
	}
	return nil
}

func (ix *Index) headEqualsValues(head int, vals []Value) bool {
	for k, c := range ix.cols {
		if !ix.rel.Value(head, c).Equal(vals[k]) {
			return false
		}
	}
	return true
}

// LookupRow returns the row positions whose key columns Equal those of row
// probeRow of probe at probeCols. Allocation-free; the returned slice must
// not be modified.
func (ix *Index) LookupRow(probe *Relation, probeRow int, probeCols []int) []int {
	h := hashSeed
	for _, c := range probeCols {
		h = combineHash(h, probe.hashAt(probeRow, c))
	}
	gi, ok := ix.byHash[h]
	for ok {
		g := &ix.groups[gi]
		match := true
		for k, c := range ix.cols {
			if !ix.rel.Value(g.head, c).Equal(probe.Value(probeRow, probeCols[k])) {
				match = false
				break
			}
		}
		if match {
			return g.rows
		}
		if g.next < 0 {
			return nil
		}
		gi = g.next
	}
	return nil
}

// Buckets returns the number of distinct composite keys in the index
// (hash collisions between distinct keys are counted separately, exactly).
func (ix *Index) Buckets() int { return len(ix.groups) }
