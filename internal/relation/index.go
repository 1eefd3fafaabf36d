package relation

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Index is a hash index mapping a composite key over a fixed column set to
// the row positions holding that key. It is the access path used by the
// exact evaluator's hash joins and by the estimators' sample-side joins.
//
// The layout is flat: an open-addressing slot table (a power of two at
// least twice the indexed row count, linear probing) points into buckets
// kept in first-seen (ascending row) order, and every bucket's rows are one
// range of a single row vector filled by counting and prefix sums, its
// bounds read from one prefix-sum array. A build therefore allocates a
// fixed handful of slices however many distinct keys there are. Split
// restricts an index to row groups the same way: the parts share the slot
// table and buckets, and each bucket's rows are sorted by group, so part p
// of bucket b is again one range.
//
// Keys are 64-bit hashes combined from the column vectors
// (column.keyHashAt per column, so Int(2) and Float(2.0) collide exactly
// as Equal demands), with collision verification against a bucket's
// exemplar row — no per-row key string is ever materialized. Rows with
// Equal key values land in one bucket; distinct key values that merely
// share a hash get distinct buckets, disambiguated by typed comparison at
// build and probe time.
type Index struct {
	rel  *Relation
	cols []int

	shift  uint     // slot of hash h is h >> shift (the hash's top bits)
	slots  []int32  // bucket index + 1; 0 = empty
	groups []bucket // buckets in first-seen (ascending row) order
	rows   []int    // row positions, grouped by bucket, then by part

	// Bucket b's rows in part p are rows[bounds[b*parts+p]:bounds[b*parts+p+1]],
	// in insertion order. A built index is the one-part case (parts 1,
	// part 0); the parts of a Split share bounds and rows.
	bounds      []int32
	parts, part int
}

// bucket is one distinct composite key: its full hash and an exemplar row
// for typed verification.
type bucket struct {
	hash uint64
	head int // exemplar row position (first inserted)
}

// hashSeed and hashStep combine per-column key hashes into one composite
// key hash. The combination is order-sensitive and shared by every probe
// path, so build- and probe-side hashes agree by construction.
const (
	hashSeed = uint64(fnvOffset)
	hashStep = uint64(fnvPrime)
)

func combineHash(h, keyHash uint64) uint64 { return (h ^ keyHash) * hashStep }

// nullKeyHash is the key hash of null (null == null under Equal).
const nullKeyHash = 0x9e3779b97f4a7c15

// numKeyHash is the key hash of a numeric value: a 64-bit mix of its
// float64 bits, so Int(k) and Float(k) collide as Equal demands. −0 is
// folded into +0 on the bit pattern (the two zeros are Equal).
func numKeyHash(f float64) uint64 {
	return mixBits(numBits(f))
}

// mixBits is a 64-bit finalizer (splitmix64's): every input bit moves
// every output bit, so slots taken from the top bits spread.
func mixBits(b uint64) uint64 {
	b ^= b >> 30
	b *= 0xbf58476d1ce4e5b9
	b ^= b >> 27
	b *= 0x94d049bb133111eb
	return b ^ b>>31
}

// rowHash computes the composite hash of row i over ix.cols.
func (ix *Index) rowHash(i int) uint64 {
	p := ix.rel.phys(i)
	h := hashSeed
	for _, c := range ix.cols {
		h = combineHash(h, ix.rel.cols[c].keyHashAt(p))
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

// BuildIndex indexes relation r on the given column positions. It always
// builds; SharedIndex is the memoized form for immutable views.
func BuildIndex(r *Relation, cols []int) *Index {
	return buildIndex(r, cols, r.Len(), nil)
}

// BuildIndexRows indexes only the given row positions of r (in the given
// order), the access path term evaluation uses to index candidate lists
// without copying them into a new relation.
func BuildIndexRows(r *Relation, cols []int, rows []int) *Index {
	return buildIndex(r, cols, len(rows), rows)
}

// buildIndex indexes n rows of r: rows[i] when rows is non-nil, else i. A
// build is a grow from zero buckets.
func buildIndex(r *Relation, cols []int, n int, rows []int) *Index {
	empty := &Index{cols: append([]int(nil), cols...)}
	return empty.add(r, n, rows, 0)
}

// add returns the index over r on ix's key columns that holds ix's buckets
// and rows followed by n more rows: rows[i] when rows is non-nil, else
// first+i. Buckets keep their ids and new keys follow in first-seen order.
// The slot table is sized for all the rows, never smaller than ix's: it is
// copied when the size holds, and otherwise re-slotted from the stored
// bucket hashes in id order, which is the order a build inserts them in.
// Every bucket lists ix's rows first, then its new rows in order (layout).
// ix itself is not modified.
func (ix *Index) add(r *Relation, n int, rows []int, first int) *Index {
	size := max(len(ix.slots), 1)
	for size < 2*(len(ix.rows)+n) {
		size <<= 1
	}
	g := &Index{
		rel:    r,
		cols:   ix.cols,
		shift:  uint(64 - bits.TrailingZeros(uint(size))),
		groups: slices.Clip(ix.groups),
		parts:  1,
	}
	if size == len(ix.slots) {
		g.slots = slices.Clone(ix.slots)
	} else {
		g.slots = make([]int32, size)
		mask := uint64(size - 1)
		for b := range g.groups {
			s := g.groups[b].hash >> g.shift
			for g.slots[s] != 0 {
				s = (s + 1) & mask
			}
			g.slots[s] = int32(b) + 1
		}
	}
	groupOf := make([]int32, n)
	for i := range groupOf {
		row := first + i
		if rows != nil {
			row = rows[i]
		}
		groupOf[i] = g.assign(row)
	}
	g.layout(ix, groupOf, rows, first)
	return g
}

// assign returns row's bucket: the slot probe finds the bucket whose key
// the row Equals, or appends a new bucket headed by the row.
func (ix *Index) assign(row int) int32 {
	h := ix.rowHash(row)
	mask := uint64(len(ix.slots) - 1)
	for s := h >> ix.shift; ; s = (s + 1) & mask {
		b := ix.slots[s] - 1
		if b < 0 {
			b = int32(len(ix.groups))
			ix.slots[s] = b + 1
			ix.groups = append(ix.groups, bucket{hash: h, head: row})
			return b
		}
		if bk := &ix.groups[b]; bk.hash == h && ix.rowsEqual(bk.head, row) {
			return b
		}
	}
}

// layout fills ix's bounds and row vector by counting sort: prev's rows
// per bucket (prev holds ix's first buckets), then the new rows in order,
// new row i (rows[i], or first+i when rows is nil) in bucket groupOf[i].
// Counts go into bounds[b+1] and prefix sums make bounds[b] bucket b's
// start, which serves as its fill cursor and ends at bucket b+1's start,
// so one shift restores the starts.
func (ix *Index) layout(prev *Index, groupOf []int32, rows []int, first int) {
	ix.bounds = make([]int32, len(ix.groups)+1)
	for b := range prev.groups {
		ix.bounds[b+1] = int32(prev.BucketLen(b))
	}
	for _, b := range groupOf {
		ix.bounds[b+1]++
	}
	for b := 1; b < len(ix.bounds); b++ {
		ix.bounds[b] += ix.bounds[b-1]
	}
	ix.rows = make([]int, len(prev.rows)+len(groupOf))
	for b := range prev.groups {
		ix.bounds[b] += int32(copy(ix.rows[ix.bounds[b]:], prev.BucketRows(b)))
	}
	for i, b := range groupOf {
		row := first + i
		if rows != nil {
			row = rows[i]
		}
		ix.rows[ix.bounds[b]] = row
		ix.bounds[b]++
	}
	copy(ix.bounds[1:], ix.bounds[:len(ix.groups)])
	ix.bounds[0] = 0
}

// Split restricts the index to g groups of its rows: part l indexes the
// rows r with label[r] == l, and its Lookup returns exactly the receiver's
// result for the same key filtered to those rows, in the same order. label
// is indexed by row position of the indexed relation and must map every
// indexed row into [0, g).
//
// The parts share the slot table, the buckets and one row vector; Split
// sorts each bucket's rows stably by label with one counting pass and
// records the B·g+1 part boundaries in one prefix-sum array. It never
// rehashes a key.
func (ix *Index) Split(label []int32, g int) []*Index {
	nb := len(ix.groups)
	bounds := make([]int32, nb*g+1)
	for b := 0; b < nb; b++ {
		for _, row := range ix.BucketRows(b) {
			bounds[b*g+int(label[row])+1]++
		}
	}
	for i := 1; i < len(bounds); i++ {
		bounds[i] += bounds[i-1]
	}
	rows := make([]int, bounds[nb*g])
	cursor := make([]int32, g)
	for b := 0; b < nb; b++ {
		copy(cursor, bounds[b*g:b*g+g])
		for _, row := range ix.BucketRows(b) {
			l := label[row]
			rows[cursor[l]] = row
			cursor[l]++
		}
	}
	out := make([]*Index, g)
	for l := range out {
		part := *ix
		part.rows, part.bounds, part.parts, part.part = rows, bounds, g, l
		out[l] = &part
	}
	return out
}

// BucketRows returns bucket b's rows in the index's part, in insertion
// order. b is a bucket id as LookupBucket returns it, in [0, Buckets()).
// The slice is shared with the index and must not be modified.
func (ix *Index) BucketRows(b int) []int {
	i := b*ix.parts + ix.part
	lo, hi := ix.bounds[i], ix.bounds[i+1]
	return ix.rows[lo:hi:hi]
}

// BucketLen returns the number of rows of bucket b in the index's part:
// len(BucketRows(b)) without forming the slice.
func (ix *Index) BucketLen(b int) int {
	i := b*ix.parts + ix.part
	return int(ix.bounds[i+1] - ix.bounds[i])
}

// KeyRef names one component of a probe key read in place: column Col of
// relation Rel, at the row the probe supplies for Slot.
type KeyRef struct {
	Rel  *Relation
	Slot int
	Col  int
}

// Lookup returns the row positions whose key columns Equal the probe key:
// the rows of LookupBucket. The returned slice is shared with the index and
// must not be modified; it is nil when the key is absent and may be empty
// when the key has no rows in a Split part. Allocation-free.
func (ix *Index) Lookup(key []KeyRef, rows []int) []int {
	_, out := ix.LookupBucket(key, rows)
	return out
}

// LookupBucket finds the bucket whose key columns Equal the probe key, read
// in place: component k is column key[k].Col of logical row
// rows[key[k].Slot] of key[k].Rel, aligned with the index's column set. So
// one probe can gather a composite key from several relations (term
// evaluation's bound occurrences) or from one row of one relation (a hash
// join's probe side). The key hashes from the column vectors and a bucket
// is verified cell to cell (equalCells), so no Value is boxed except for an
// Int/Float pair.
//
// It returns the bucket's id in [0, Buckets()) and its rows in the index's
// part (BucketRows), or (-1, nil) when the key is absent. Equal keys get
// equal ids, distinct keys distinct ids even when their hashes collide,
// and every part of a Split shares the ids of the index it came from, so
// per-bucket counts gathered from probes line up across parts.
// Allocation-free.
func (ix *Index) LookupBucket(key []KeyRef, rows []int) (int, []int) {
	h := hashSeed
	for _, kr := range key {
		h = combineHash(h, kr.Rel.cols[kr.Col].keyHashAt(kr.Rel.phys(rows[kr.Slot])))
	}
	mask := uint64(len(ix.slots) - 1)
probe:
	for s := h >> ix.shift; ; s = (s + 1) & mask {
		g := ix.slots[s] - 1
		if g < 0 {
			return -1, nil
		}
		b := &ix.groups[g]
		if b.hash != h {
			continue
		}
		head := ix.rel.phys(b.head)
		for k, c := range ix.cols {
			kr := key[k]
			if !equalCells(&ix.rel.cols[c], head, &kr.Rel.cols[kr.Col], kr.Rel.phys(rows[kr.Slot])) {
				continue probe
			}
		}
		return int(g), ix.BucketRows(int(g))
	}
}

// Buckets returns the number of distinct composite keys in the index
// (hash collisions between distinct keys are counted separately, exactly).
func (ix *Index) Buckets() int { return len(ix.groups) }

// Bytes estimates the index's resident size: slot table, buckets, the
// flat row vector, the part boundaries and the key column list.
func (ix *Index) Bytes() int {
	return len(ix.slots)*4 + cap(ix.groups)*16 + len(ix.rows)*8 + len(ix.bounds)*4 + len(ix.cols)*8
}

// grow returns the index of r on ix's key columns, where ix is a built
// whole-relation index of a view whose rows are r's first rows (Extend).
// Only the appended rows are hashed, and the result is the index
// BuildIndex would build over r (add).
func (ix *Index) grow(r *Relation) *Index {
	old := ix.rel.Len()
	return ix.add(r, r.Len()-old, nil, old)
}

// indexMemo is a view's memo of whole-view indexes, one per key column
// set. Entries are created under the relation's memo mutex and built at
// most once by their own sync.Once, so concurrent callers share one build.
// An entry Extend carried over from the view it grew from holds that
// view's index in from until its build grows it.
type indexMemo struct {
	cols []int
	once sync.Once
	ix   atomic.Pointer[Index]
	from *Index
}

// SharedIndex returns an index of the whole relation on the given column
// positions — the same result BuildIndex returns. On a view (Subset,
// Clone), whose rows can never change, the index is built once per key
// column set and every caller gets the same *Index; a base relation can
// grow by appending, so it gets a fresh build on every call.
func (r *Relation) SharedIndex(cols []int) *Index {
	if r.view == nil {
		return BuildIndex(r, cols)
	}
	r.memoMu.Lock()
	var e *indexMemo
	for _, m := range r.memo {
		if slices.Equal(m.cols, cols) {
			e = m
			break
		}
	}
	if e == nil {
		e = &indexMemo{cols: append([]int(nil), cols...)}
		r.memo = append(r.memo, e)
	}
	r.memoMu.Unlock()
	e.once.Do(func() {
		if e.from != nil {
			e.ix.Store(e.from.grow(r))
			e.from = nil
			return
		}
		e.ix.Store(BuildIndex(r, e.cols))
	})
	return e.ix.Load()
}

// memoBytes sums the resident size of the view's built memoized indexes
// and code vectors.
func (r *Relation) memoBytes() int {
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	total := 0
	for _, m := range r.memo {
		if ix := m.ix.Load(); ix != nil {
			total += ix.Bytes()
		}
	}
	for _, m := range r.codes {
		if c := m.codes.Load(); c != nil {
			total += len(*c) * 4
		}
	}
	return total
}
