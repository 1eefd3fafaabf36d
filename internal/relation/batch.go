package relation

// This file provides the columnar batch format the streaming evaluator
// (internal/algebra) pulls through its operator pipelines. A batch is a
// zero-copy window over column storage: it never holds values, only row
// positions into source relations plus a column mapping, so a σ/⋈ pipeline
// moves fixed-size index vectors while every value read goes straight to
// the typed column vectors.

// BatchRows is the row capacity streaming operators target per batch: small
// enough that a pipeline's live batches stay cache-resident and its memory
// ceiling is independent of input size, large enough to amortize the
// per-batch dispatch.
const BatchRows = 1024

// BatchCol maps one output column of a batch to a column of one of its
// source relations.
type BatchCol struct {
	Src int // index into the batch's sources
	Col int // column position within that source's schema
}

// BatchSource is one source relation of a batch together with the logical
// row positions the batch's rows take from it (one entry per batch row).
type BatchSource struct {
	Rel  *Relation
	Rows []int
}

// Batch is a fixed-layout window of rows flowing through the streaming
// evaluator. Its layout — the source relations and the column mapping — is
// fixed for the lifetime of the emitting operator; only the row-index
// vectors change batch to batch. Row i of the batch reads column c as
// Srcs[Cols[c].Src].Rel.Value(Srcs[Cols[c].Src].Rows[i], Cols[c].Col): a
// join output is simply a batch with both operands as sources and no
// copied values.
//
// Invariant: every source's Rows vector has the same length, the batch's
// row count. A batch must have at least one source.
type Batch struct {
	Srcs []BatchSource
	Cols []BatchCol
}

// NewBatch creates an empty batch over the given source relations with the
// given column mapping, reserving BatchRows of row-index capacity per
// source.
func NewBatch(rels []*Relation, cols []BatchCol) *Batch {
	b := &Batch{Srcs: make([]BatchSource, len(rels)), Cols: cols}
	for i, r := range rels {
		b.Srcs[i] = BatchSource{Rel: r, Rows: make([]int, 0, BatchRows)}
	}
	return b
}

// Len returns the batch's row count.
func (b *Batch) Len() int { return len(b.Srcs[0].Rows) }

// Reset truncates the batch to zero rows, keeping capacity.
func (b *Batch) Reset() {
	for i := range b.Srcs {
		b.Srcs[i].Rows = b.Srcs[i].Rows[:0]
	}
}

// Truncate drops rows at positions >= n (used by operators that append a
// candidate row and then reject it).
func (b *Batch) Truncate(n int) {
	for i := range b.Srcs {
		b.Srcs[i].Rows = b.Srcs[i].Rows[:n]
	}
}

// Value reads column c of row i in place from the source column vector.
func (b *Batch) Value(i, c int) Value {
	bc := b.Cols[c]
	s := &b.Srcs[bc.Src]
	return s.Rel.Value(s.Rows[i], bc.Col)
}

// AppendKey appends the self-delimiting key encoding of row i over the
// given batch column positions (nil cols keys every column) to buf and
// returns the extended buffer. Keys are Value-compatible with Tuple.Key and
// Row.Key: equal keys iff the projected values are pairwise Equal.
func (b *Batch) AppendKey(buf []byte, i int, cols []int) []byte {
	if cols == nil {
		for c := range b.Cols {
			buf = b.Value(i, c).appendKey(buf)
		}
		return buf
	}
	for _, c := range cols {
		buf = b.Value(i, c).appendKey(buf)
	}
	return buf
}

// AppendRowFrom appends row i of src to b. The batches must share the same
// layout (same sources in the same order); only row indices are copied.
func (b *Batch) AppendRowFrom(src *Batch, i int) {
	for j := range b.Srcs {
		b.Srcs[j].Rows = append(b.Srcs[j].Rows, src.Srcs[j].Rows[i])
	}
}

// HashRow computes the composite key hash of row i over the given batch
// column positions, consistent with Index/BatchIndex hashing: Equal values
// hash equally across batches and relations.
func (b *Batch) HashRow(i int, cols []int) uint64 {
	h := hashSeed
	for _, c := range cols {
		bc := b.Cols[c]
		s := &b.Srcs[bc.Src]
		h = combineHash(h, s.Rel.hashAt(s.Rows[i], bc.Col))
	}
	return h
}

// Bytes returns the heap footprint of the batch's row-index vectors (the
// only storage a batch owns — values stay in the source relations).
func (b *Batch) Bytes() int {
	n := 0
	for i := range b.Srcs {
		n += cap(b.Srcs[i].Rows) * 8
	}
	return n
}

// AppendBatchRow appends row i of the batch to the relation, copying
// column-wise from the batch's source vectors without materializing a
// tuple. The relation's schema must have the same layout as the batch's
// column mapping (the caller's responsibility, as with AppendFrom).
func (r *Relation) AppendBatchRow(b *Batch, i int) {
	if r.view != nil {
		panic("relation " + r.name + ": cannot append to a view")
	}
	for c := range r.cols {
		bc := b.Cols[c]
		s := &b.Srcs[bc.Src]
		r.cols[c].appendFrom(r.n, &s.Rel.cols[bc.Col], s.Rel.phys(s.Rows[i]))
	}
	r.n++
}

// BatchIndex is a typed hash index over the rows a growing build-side batch
// holds at build time — the build side of a streaming hash join. It mirrors
// Index (composite 64-bit hashes, typed verification against a bucket
// exemplar, collision chains), but keys may span several source relations
// of the batch.
type BatchIndex struct {
	b    *Batch
	cols []int

	byHash map[uint64]int32
	groups []batchBucket
}

type batchBucket struct {
	head int // exemplar batch row (first inserted)
	rows []int
	next int32
}

// BuildBatchIndex indexes every current row of b on the given batch column
// positions. The batch must not change afterwards (the streaming join
// drains its build side fully before probing).
func BuildBatchIndex(b *Batch, cols []int) *BatchIndex {
	n := b.Len()
	ix := &BatchIndex{
		b:      b,
		cols:   append([]int(nil), cols...),
		byHash: make(map[uint64]int32, n),
	}
	for i := 0; i < n; i++ {
		h := b.HashRow(i, ix.cols)
		first, exists := ix.byHash[h]
		if !exists {
			ix.byHash[h] = int32(len(ix.groups))
			ix.groups = append(ix.groups, batchBucket{head: i, rows: []int{i}, next: -1})
			continue
		}
		gi := first
		for {
			g := &ix.groups[gi]
			if ix.rowsEqual(g.head, i) {
				g.rows = append(g.rows, i)
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
			ix.groups = append(ix.groups, batchBucket{head: i, rows: []int{i}, next: -1})
			ix.groups[gi].next = ni
		}
	}
	return ix
}

func (ix *BatchIndex) rowsEqual(i, j int) bool {
	for _, c := range ix.cols {
		if !ix.b.Value(i, c).Equal(ix.b.Value(j, c)) {
			return false
		}
	}
	return true
}

// Lookup returns the build-side batch rows whose key columns Equal those of
// row pi of the probe batch at probeCols (positionally aligned with the
// index's column set). The returned slice is shared with the index and must
// not be modified. Allocation-free.
func (ix *BatchIndex) Lookup(probe *Batch, pi int, probeCols []int) []int {
	h := probe.HashRow(pi, probeCols)
	gi, ok := ix.byHash[h]
	for ok {
		g := &ix.groups[gi]
		match := true
		for k, c := range ix.cols {
			if !ix.b.Value(g.head, c).Equal(probe.Value(pi, probeCols[k])) {
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

// Bytes returns the approximate heap footprint of the index structures
// (buckets and hash map; the indexed batch is counted by Batch.Bytes).
func (ix *BatchIndex) Bytes() int {
	n := len(ix.byHash) * 12
	for i := range ix.groups {
		n += 32 + cap(ix.groups[i].rows)*8
	}
	return n
}
