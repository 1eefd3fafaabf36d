package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Tuple is one materialized row: a slice of values positionally aligned
// with a schema. Since the columnar refactor, relations no longer store
// tuples — Tuple survives as the explicit materialization escape hatch
// (Relation.Materialize, Row.Materialize) and as the construction type for
// appends and stream payloads. Code on the estimator hot path reads column
// accessors (Relation.Value, Row) instead; the relestlint `tuplecopy` rule
// enforces that outside this package.
type Tuple []Value

// Equal reports whether two tuples have equal values position by position.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically by Value.Compare.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Key returns a self-delimiting byte-string key over the given column
// positions, suitable for use as a map key: two tuples have equal keys over
// cols iff the projected values are pairwise Equal. Passing nil cols keys
// the whole tuple.
func (t Tuple) Key(cols []int) string {
	buf := make([]byte, 0, 16*max(1, len(cols)))
	return string(t.AppendKey(buf, cols))
}

// AppendKey appends the Key encoding of the given column positions to buf
// and returns the extended buffer; nil cols keys the whole tuple. It is the
// allocation-free companion of Key for hot probe loops that reuse a buffer.
func (t Tuple) AppendKey(buf []byte, cols []int) []byte {
	if cols == nil {
		for _, v := range t {
			buf = v.appendKey(buf)
		}
		return buf
	}
	for _, c := range cols {
		buf = t[c].appendKey(buf)
	}
	return buf
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Relation is an in-memory bag of rows with a fixed schema and a name,
// stored column-wise: one typed vector per column (dictionary-encoded for
// strings) plus a null bitmap. Rows are addressable by dense position
// [0, Len), which is what the sampling layer relies on.
//
// A Relation is either a base relation (owns its column storage, grows by
// Append) or a view (an index vector over a snapshot of another relation's
// columns — see Subset). Views are zero-copy: they share column storage
// with their base and pin it against later appends, so a sample view can
// never observe stream mutation of its base (the copy-on-write rule; see
// column.go). A Relation is safe for concurrent reads after construction;
// appends are not synchronized with other uses of the same relation, but
// views taken earlier may be read while their base is appended to.
type Relation struct {
	name   string
	schema *Schema
	cols   []column
	n      int
	// view maps logical row i to position view[i] of cols. nil means the
	// relation is a base: logical rows are storage rows [0, n).
	view []int
	// codes holds a view's key code vectors (see KeyCodes), created on
	// first use, and extended records that Extend grew the view once; both
	// are guarded by memoMu. Bases never memoize.
	memoMu   sync.Mutex
	codes    []*codeMemo
	extended bool
}

// New creates an empty base relation with the given name and schema.
func New(name string, schema *Schema) *Relation {
	cols := make([]column, schema.Len())
	for i := range cols {
		cols[i] = newColumn(schema.Column(i).Kind)
	}
	return &Relation{name: name, schema: schema, cols: cols}
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of rows.
func (r *Relation) Len() int { return r.n }

// IsView reports whether the relation is a zero-copy view over another
// relation's column storage (Subset result) rather than an appendable base.
func (r *Relation) IsView() bool { return r.view != nil }

// phys maps a logical row position to its physical storage row.
func (r *Relation) phys(i int) int {
	if r.view != nil {
		return r.view[i]
	}
	return i
}

// Value returns the value at row i, column c. Allocation-free (string
// values alias the dictionary).
func (r *Relation) Value(i, c int) Value { return r.cols[c].value(r.phys(i)) }

// IsNull reports whether the value at row i, column c is null.
func (r *Relation) IsNull(i, c int) bool { return r.cols[c].isNull(r.phys(i)) }

// Row returns a lightweight handle on row i — the compact row-view API the
// layers above read through. The handle stays valid for the lifetime of the
// relation.
func (r *Relation) Row(i int) Row { return Row{r: r, i: i} }

// Row is a zero-allocation handle on one row of a relation: a (relation,
// position) pair whose accessors gather values from the column vectors on
// demand.
type Row struct {
	r *Relation
	i int
}

// Relation returns the relation the row belongs to.
func (w Row) Relation() *Relation { return w.r }

// Index returns the row's position within its relation.
func (w Row) Index() int { return w.i }

// Value returns the value of column c.
func (w Row) Value(c int) Value { return w.r.Value(w.i, c) }

// IsNull reports whether column c is null.
func (w Row) IsNull(c int) bool { return w.r.IsNull(w.i, c) }

// Len returns the row's arity.
func (w Row) Len() int { return w.r.schema.Len() }

// Key returns the Tuple.Key encoding of the given column positions (nil =
// all columns) without materializing the row.
func (w Row) Key(cols []int) string {
	buf := make([]byte, 0, 16*max(1, len(cols)))
	return string(w.AppendKey(buf, cols))
}

// AppendKey appends the Tuple.Key encoding of the given column positions
// (nil = all columns) to buf — the allocation-free companion of Key.
func (w Row) AppendKey(buf []byte, cols []int) []byte {
	if cols == nil {
		for c := 0; c < w.r.schema.Len(); c++ {
			buf = w.r.Value(w.i, c).appendKey(buf)
		}
		return buf
	}
	for _, c := range cols {
		buf = w.r.Value(w.i, c).appendKey(buf)
	}
	return buf
}

// Materialize copies the row out of column storage into a fresh Tuple —
// the explicit escape hatch for cold paths (export, display, stream
// payloads). Hot paths read Value/IsNull instead; relestlint's `tuplecopy`
// rule flags unannotated uses outside internal/relation.
func (w Row) Materialize() Tuple {
	var t Tuple
	for c := 0; c < w.r.schema.Len(); c++ {
		t = append(t, w.r.Value(w.i, c))
	}
	return t
}

// String renders the row like Tuple.String, without materializing it.
func (w Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for c := 0; c < w.r.schema.Len(); c++ {
		if c > 0 {
			b.WriteString(", ")
		}
		b.WriteString(w.r.Value(w.i, c).String())
	}
	b.WriteByte(')')
	return b.String()
}

// Materialize copies row i into a fresh Tuple (Row(i).Materialize).
func (r *Relation) Materialize(i int) Tuple { return r.Row(i).Materialize() }

// Append adds a tuple after validating its arity and kinds against the
// schema (nulls are accepted in any column). Appending to a view fails:
// views pin immutable storage.
func (r *Relation) Append(t Tuple) error {
	if r.view != nil {
		return fmt.Errorf("relation %s: cannot append to a view", r.name)
	}
	if len(t) != r.schema.Len() {
		return fmt.Errorf("relation %s: tuple arity %d != schema arity %d", r.name, len(t), r.schema.Len())
	}
	for i, v := range t {
		if v.IsNull() {
			continue
		}
		if want := r.schema.Column(i).Kind; v.Kind() != want {
			return fmt.Errorf("relation %s: column %s expects %s, got %s",
				r.name, r.schema.Column(i).Name, want, v.Kind())
		}
	}
	for i, v := range t {
		r.cols[i].appendValue(r.n, v)
	}
	r.n++
	return nil
}

// MustAppend is Append that panics on error, for tests and generators whose
// tuples are constructed type-correct by design.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// AppendRow is a convenience wrapper building a tuple from values.
func (r *Relation) AppendRow(vals ...Value) error { return r.Append(Tuple(vals)) }

// AppendFrom appends row i of src, copying column-wise without
// materializing a tuple. The schemas must have equal layouts (the caller's
// responsibility — evaluator outputs are schema-checked at construction).
func (r *Relation) AppendFrom(src *Relation, i int) {
	if r.view != nil {
		panic(fmt.Sprintf("relation %s: cannot append to a view", r.name))
	}
	si := src.phys(i)
	for c := range r.cols {
		r.cols[c].appendFrom(r.n, &src.cols[c], si)
	}
	r.n++
}

// Grow reserves capacity for extra more rows, so a bulk append of known
// (or upper-bounded) size pays at most one reallocation per column
// instead of a doubling cascade. A hint only: appending past the reserved
// capacity stays correct.
func (r *Relation) Grow(extra int) {
	if r.view != nil || extra <= 0 {
		return
	}
	for c := range r.cols {
		r.cols[c].grow(extra)
	}
}

// AppendJoined appends the concatenation of row ai of a and row bi of b,
// copying column-wise (the join/product output path). a's arity plus b's
// arity must equal r's.
func (r *Relation) AppendJoined(a *Relation, ai int, b *Relation, bi int) {
	if r.view != nil {
		panic(fmt.Sprintf("relation %s: cannot append to a view", r.name))
	}
	la := a.schema.Len()
	pa, pb := a.phys(ai), b.phys(bi)
	for c := range r.cols {
		if c < la {
			r.cols[c].appendFrom(r.n, &a.cols[c], pa)
		} else {
			r.cols[c].appendFrom(r.n, &b.cols[c-la], pb)
		}
	}
	r.n++
}

// Each calls fn for every row position with the row materialized as a
// Tuple, stopping early if fn returns false. It allocates one Tuple per
// row; prefer EachRow (or direct Value access) everywhere throughput or
// memory matters — relestlint's `tuplecopy` rule flags Each outside this
// package.
func (r *Relation) Each(fn func(i int, t Tuple) bool) {
	for i := 0; i < r.n; i++ {
		if !fn(i, r.Row(i).Materialize()) {
			return
		}
	}
}

// EachRow calls fn for every row position and row handle, stopping early
// if fn returns false. No per-row allocation.
func (r *Relation) EachRow(fn func(i int, row Row) bool) {
	for i := 0; i < r.n; i++ {
		if !fn(i, Row{r: r, i: i}) {
			return
		}
	}
}

// snapshotCols returns the relation's columns pinned at the current length
// (see column.snapshot); for views the columns are already pinned.
func (r *Relation) snapshotCols() []column {
	if r.view != nil {
		return r.cols
	}
	out := make([]column, len(r.cols))
	for i := range r.cols {
		out[i] = r.cols[i].snapshot(r.n)
	}
	return out
}

// Subset returns a zero-copy view containing the rows at the given
// positions, in the given order. Positions may repeat. The view shares
// column storage with r (pinned at r's current length), so building it
// costs one index vector — this is how sample views reference base
// relations without copying tuples.
func (r *Relation) Subset(name string, positions []int) *Relation {
	view := make([]int, len(positions))
	for i, p := range positions {
		if p < 0 || p >= r.n {
			panic(fmt.Sprintf("relation %s: subset position %d outside [0, %d)", r.name, p, r.n))
		}
		view[i] = r.phys(p)
	}
	return &Relation{name: name, schema: r.schema, cols: r.snapshotCols(), n: len(view), view: view}
}

// Extend returns a view holding r's rows followed by src's rows at the
// given positions, in the given order: what src.Subset over r's positions
// and then these would hold, without recoding r's keys. r must be a view
// over src's storage (a Subset of src, or a view Extend grew from one).
// Neither r nor its memoized code vectors change: every code vector built
// on r is carried to the new view, which grows it on first use by coding
// only the appended rows (KeyCodes).
//
// The first Extend of a view appends into the spare capacity of its row
// vector when that holds the new rows, and the carried code vectors grow
// into theirs the same way: r reads only its own prefix, so the two views
// share storage without sharing a writable tail. Any later Extend of r
// copies, so two views grown from one never write the same slots. A copy
// keeps as much room again as the rows it holds, so a view grown
// geometrically copies each row a bounded number of times; a Subset, an
// Alias and a Clone keep no room, so only views Extend made ever grow in
// place.
func (r *Relation) Extend(src *Relation, positions []int) *Relation {
	if r.view == nil {
		panic(fmt.Sprintf("relation %s: Extend of a base relation", r.name))
	}
	n := r.n + len(positions)
	r.memoMu.Lock()
	inPlace := !r.extended && cap(r.view) >= n
	r.extended = true
	var carried []*codeMemo
	for _, m := range r.codes {
		if c := m.codes.Load(); c != nil {
			carried = append(carried, &codeMemo{cols: m.cols, dom: m.dom, from: *c, grow: inPlace})
		}
	}
	r.memoMu.Unlock()
	view := r.view[:r.n]
	if !inPlace {
		view = slices.Grow(view[:r.n:r.n], 2*n-r.n)
	}
	view = view[:n]
	for i, p := range positions {
		if p < 0 || p >= src.n {
			panic(fmt.Sprintf("relation %s: extend position %d outside [0, %d)", src.name, p, src.n))
		}
		view[r.n+i] = src.phys(p)
	}
	return &Relation{name: r.name, schema: r.schema, cols: src.snapshotCols(), n: len(view), view: view, codes: carried}
}

// Clone returns an independent read-only view of the relation's current
// rows (zero-copy). Use Compact for an appendable deep copy.
func (r *Relation) Clone(name string) *Relation {
	view := make([]int, r.n)
	for i := range view {
		view[i] = r.phys(i)
	}
	return &Relation{name: name, schema: r.schema, cols: r.snapshotCols(), n: r.n, view: view}
}

// Compact materializes the relation into fresh, dense column storage —
// a deep, appendable copy that drops any view indirection and unreferenced
// storage. Used to rewrite a view into a base relation.
func (r *Relation) Compact(name string) *Relation {
	out := New(name, r.schema)
	for i := 0; i < r.n; i++ {
		out.AppendFrom(r, i)
	}
	return out
}

// Distinct returns a new relation with duplicate rows removed, preserving
// first-occurrence order.
func (r *Relation) Distinct(name string) *Relation {
	positions := make([]int, 0, r.n)
	seen := make(map[string]struct{}, r.n)
	var buf []byte
	for i := 0; i < r.n; i++ {
		buf = r.Row(i).AppendKey(buf[:0], nil)
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		seen[string(buf)] = struct{}{}
		positions = append(positions, i)
	}
	return r.Subset(name, positions)
}

// compareRows orders two logical rows lexicographically by Value.Compare,
// matching Tuple.Compare on the materialized rows.
func (r *Relation) compareRows(i, j int) int {
	for c := 0; c < r.schema.Len(); c++ {
		if cmp := r.Value(i, c).Compare(r.Value(j, c)); cmp != 0 {
			return cmp
		}
	}
	return 0
}

// Sort sorts the rows in place lexicographically; used to canonicalize
// relations in tests and display paths. The result is storage-layout
// independent: a base relation and any view holding the same rows sort to
// the same sequence.
func (r *Relation) Sort() {
	perm := make([]int, r.n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return r.compareRows(perm[a], perm[b]) < 0 })
	if r.view != nil {
		// Views reorder by permuting the index vector, which invalidates
		// any memoized code vector over the old order.
		r.memoMu.Lock()
		r.codes = nil
		r.memoMu.Unlock()
		old := r.view
		view := make([]int, r.n)
		for i, p := range perm {
			view[i] = old[p]
		}
		r.view = view
		return
	}
	// Base relations gather each column into fresh storage in sorted order,
	// staying an appendable base.
	sorted := New(r.name, r.schema)
	for _, p := range perm {
		sorted.AppendFrom(r, p)
	}
	r.cols = sorted.cols
}

// Bytes estimates the relation's resident storage in bytes: column vectors,
// null bitmaps and string dictionaries for base relations; the index vector
// for views (whose column storage is shared with, and accounted to, the
// base) plus the code vectors memoized on them (KeyCodes). It feeds the
// relest_relation_bytes / relest_synopsis_bytes gauges.
func (r *Relation) Bytes() int {
	if r.view != nil {
		return len(r.view)*8 + r.memoBytes()
	}
	total := 0
	seenDict := map[*dict]bool{}
	for i := range r.cols {
		c := &r.cols[i]
		total += c.bytes()
		if c.dict != nil && !seenDict[c.dict] {
			seenDict[c.dict] = true
			total += c.dict.bytes()
		}
	}
	return total
}

// String renders a compact description, not the data.
func (r *Relation) String() string {
	return fmt.Sprintf("%s%s[%d rows]", r.name, r.schema, r.n)
}
