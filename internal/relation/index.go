package relation

import "slices"

// Index groups row positions by key code: the access path of every
// equi-join step that enumerates, in term evaluation and in the exact
// evaluator's joins. Its buckets are the distinct codes of the indexed
// rows, and a bucket lists its rows in insertion order (so ascending, for
// an ascending row list). A build is a counting sort: one pass counts each
// code's rows, prefix sums turn the counts into one bounds array, and a
// second pass lays the rows out in one flat vector, so a build allocates a
// fixed handful of slices however many keys there are. A split-sample
// pass indexes its rows by (group, code) keys of its own making
// (algebra.Labelled), so a group's bucket is one such bucket.
//
// When the indexed codes are dense — no more codes up to the largest one
// than twice the rows, as a sample view's key codes are — the bucket of
// code c is c itself, empty when no indexed row holds c, and a probe reads
// two adjacent bounds. When they are sparse (a composite key's tuple
// codes, which a long-lived domain hands out late), the buckets are only
// the codes present, numbered in code order through a code → bucket
// table, so the bounds are sized by the keys the index holds rather than
// by the domain.
//
// Codes come from a KeyDomain (Relation.KeyCodes), which is what decides
// that two cells match: Equal keys share a code. An index never reads a
// cell, so it has no hash, slot table or cell comparison of its own.
type Index struct {
	// bucket maps a code to its bucket id + 1, 0 when no indexed row holds
	// the code; nil when the bucket ids are the codes. nb is the number of
	// buckets.
	bucket []int32
	nb     int

	// Bucket b's rows are rows[bounds[b]:bounds[b+1]], in insertion order.
	bounds []int32
	rows   []int
}

// BuildIndex indexes every row of r on the key over columns cols, coded in
// a domain of its own: what any index of r's rows on cols buckets. A join
// that probes an index codes both sides in one domain and builds with
// NewIndex instead.
func BuildIndex(r *Relation, cols []int) *Index {
	return NewIndex(r.KeyCodes(cols, newKeyDomain(false, r.Len())), nil)
}

// NewIndex indexes the given row positions (in the given order; nil means
// every row, ascending) by their codes: row's bucket is the one of code
// codes[row].
func NewIndex(codes []int32, rows []int) *Index {
	if rows == nil {
		rows = make([]int, len(codes))
		for i := range rows {
			rows[i] = i
		}
	}
	// Count code c's rows into count[c+1], growing count to the largest
	// code as it comes, then trim it there. Dense codes: prefix sums make
	// count[c] bucket c's start. Sparse codes: the codes present, in code
	// order, get bucket ids, count[1:] becomes the code → bucket table,
	// and the bounds are laid out apart.
	count := make([]int32, 64)
	for _, row := range rows {
		c := int(codes[row]) + 1
		if c >= len(count) {
			count = slices.Grow(count, c+1-len(count))
			count = count[:cap(count)]
		}
		count[c]++
	}
	top := len(count) - 2
	for top >= 0 && count[top+1] == 0 {
		top--
	}
	count = count[:top+2]
	ix := &Index{}
	if top < 2*len(rows) {
		for c := 1; c < len(count); c++ {
			count[c] += count[c-1]
		}
		ix.bounds, ix.nb = count, len(count)-1
	} else {
		ix.bucket = count[1:]
		ix.bounds = make([]int32, 1, min(len(rows), len(ix.bucket))+1)
		for c, n := range ix.bucket {
			if n > 0 {
				ix.bounds = append(ix.bounds, ix.bounds[len(ix.bounds)-1]+n)
				ix.bucket[c] = int32(len(ix.bounds) - 1)
			}
		}
		ix.nb = len(ix.bounds) - 1
	}
	// Lay the rows out: each in order lands at its bucket's cursor, which
	// starts at the bucket's start.
	cursor := slices.Clone(ix.bounds)
	ix.rows = make([]int, len(rows))
	for _, row := range rows {
		b := ix.bucketOf(codes[row])
		ix.rows[cursor[b]] = row
		cursor[b]++
	}
	return ix
}

// bucketOf returns the id in [0, nb) of the bucket of the given code, or
// -1 when the index has none: the code is past every indexed one, or,
// with sparse codes, no indexed row holds it. With dense codes a code no
// indexed row holds has an empty bucket.
func (ix *Index) bucketOf(code int32) int {
	if ix.bucket != nil {
		if uint(code) >= uint(len(ix.bucket)) {
			return -1
		}
		return int(ix.bucket[code]) - 1
	}
	if uint(code) >= uint(ix.nb) {
		return -1
	}
	return int(code)
}

// Lookup returns the rows of the bucket of the given code, in insertion
// order, nil when it has none. The slice is shared with the index and
// must not be modified.
func (ix *Index) Lookup(code int32) []int {
	b := ix.bucketOf(code)
	if b < 0 {
		return nil
	}
	lo, hi := ix.bounds[b], ix.bounds[b+1]
	if lo == hi {
		return nil
	}
	return ix.rows[lo:hi:hi]
}
