package relation

// Columnar storage: each column of a relation is one dense typed vector —
// []int64 for int columns, []float64 for float columns, a []uint32 code
// vector over an append-only string dictionary for string columns — plus a
// null bitmap. Row access gathers values across vectors by position.
//
// The immutability discipline every view and index relies on: entries
// [0, len) of a column vector, a null bitmap, and a dictionary are NEVER
// rewritten once appended. Appends only extend. A view therefore pins
// stable data by snapshotting the column slices clamped to the base's
// length at view-creation time (copy-on-write by construction: a later
// append to the base may grow or even reallocate the base's slices, but it
// cannot change any entry a live view can read). Nor does it write any
// memory a view reads, so views may be read while their base is appended
// to: a view holds its own copy of the dictionary's slice headers (see
// frozen) and of a null bitmap word that rows past the view would share.

// dict is an append-only string dictionary shared by a column and every
// view over it. Codes are assigned in first-appearance order; entry hashes
// (Value.Hash of the string) are cached so a key domain places string
// keys without rescanning bytes.
type dict struct {
	strs   []string
	hashes []uint64
	index  map[string]uint32
	// root is the dictionary that interns: itself for a column's own
	// dictionary, that dictionary for a view's frozen copy of it. Codes
	// of two columns are comparable when their roots are the same.
	root *dict
}

func newDict() *dict {
	d := &dict{index: make(map[string]uint32)}
	d.root = d
	return d
}

// frozen returns the dictionary as it stands, for a view: its slices are
// clamped copies of the headers, so interning a new string afterwards
// writes nothing the view reads.
func (d *dict) frozen() *dict {
	n := len(d.strs)
	return &dict{strs: d.strs[:n:n], hashes: d.hashes[:n:n], root: d.root}
}

// code interns s, returning its stable code.
func (d *dict) code(s string) uint32 {
	if c, ok := d.index[s]; ok {
		return c
	}
	c := uint32(len(d.strs))
	d.strs = append(d.strs, s)
	d.hashes = append(d.hashes, Str(s).Hash())
	d.index[s] = c
	return c
}

// codeWithHash interns s whose Value.Hash is already known (the cross-
// dictionary copy path), skipping the rescan of the string bytes. Codes
// are assigned in first-appearance order exactly as code does.
func (d *dict) codeWithHash(s string, h uint64) uint32 {
	if c, ok := d.index[s]; ok {
		return c
	}
	c := uint32(len(d.strs))
	d.strs = append(d.strs, s)
	d.hashes = append(d.hashes, h)
	d.index[s] = c
	return c
}

// bytes estimates the dictionary's resident size.
func (d *dict) bytes() int {
	b := len(d.strs)*16 + len(d.hashes)*8
	for _, s := range d.strs {
		b += len(s) * 2 // string bytes plus the interning map's key copy
	}
	b += len(d.strs) * 8 // map entry overhead (code + bucket slot), rough
	return b
}

// column is the typed storage of one column. Exactly one vector is
// populated, selected by kind; nulls carry a zero entry in the vector and a
// set bit in the bitmap. KindNull columns store only the bitmap.
type column struct {
	kind   Kind
	ints   []int64
	floats []float64
	codes  []uint32
	dict   *dict
	nulls  []uint64 // bit i set = row i is null; nil when no nulls so far
}

func newColumn(kind Kind) column {
	c := column{kind: kind}
	if kind == KindString {
		c.dict = newDict()
	}
	return c
}

// isNull reports whether row i is null.
func (c *column) isNull(i int) bool { return bitAt(c.nulls, i) }

// bitAt reports whether bit i of a null bitmap is set; bits past the
// bitmap's end are clear.
func bitAt(nulls []uint64, i int) bool {
	w := i >> 6
	return w < len(nulls) && nulls[w]&(1<<(uint(i)&63)) != 0
}

// setNull marks row i null, growing the bitmap to cover it.
func (c *column) setNull(i int) {
	w := i >> 6
	for len(c.nulls) <= w {
		c.nulls = append(c.nulls, 0)
	}
	c.nulls[w] |= 1 << (uint(i) & 63)
}

// appendValue appends v (already validated: null or the column's kind).
func (c *column) appendValue(i int, v Value) {
	if v.IsNull() {
		c.setNull(i)
		switch c.kind {
		case KindInt:
			c.ints = append(c.ints, 0)
		case KindFloat:
			c.floats = append(c.floats, 0)
		case KindString:
			c.codes = append(c.codes, 0)
		}
		return
	}
	switch c.kind {
	case KindInt:
		c.ints = append(c.ints, v.i)
	case KindFloat:
		c.floats = append(c.floats, v.f)
	case KindString:
		c.codes = append(c.codes, c.dict.code(v.s))
	}
}

// grow reserves capacity for extra more rows beyond the current length,
// so a bulk append of known size pays one reallocation instead of a
// doubling cascade.
func (c *column) grow(extra int) {
	switch c.kind {
	case KindInt:
		c.ints = growSlice(c.ints, extra)
	case KindFloat:
		c.floats = growSlice(c.floats, extra)
	case KindString:
		c.codes = growSlice(c.codes, extra)
	}
}

func growSlice[T any](s []T, extra int) []T {
	if cap(s)-len(s) >= extra {
		return s
	}
	out := make([]T, len(s), len(s)+extra)
	copy(out, s)
	return out
}

// appendFrom appends (physical) row si of src — a column of the same kind
// — as row i, copying typed storage directly: no Value is boxed, ints and
// floats copy straight across, and string rows copy dictionary codes when
// the dictionaries are shared or re-intern with the cached hash when not.
// Interning order matches the appendValue path exactly, so the resulting
// dictionary is identical either way.
func (c *column) appendFrom(i int, src *column, si int) {
	if src.isNull(si) {
		c.setNull(i)
		switch c.kind {
		case KindInt:
			c.ints = append(c.ints, 0)
		case KindFloat:
			c.floats = append(c.floats, 0)
		case KindString:
			c.codes = append(c.codes, 0)
		}
		return
	}
	switch c.kind {
	case KindInt:
		c.ints = append(c.ints, src.ints[si])
	case KindFloat:
		c.floats = append(c.floats, src.floats[si])
	case KindString:
		code := src.codes[si]
		if c.dict.root != src.dict.root {
			code = c.dict.codeWithHash(src.dict.strs[code], src.dict.hashes[code])
		}
		c.codes = append(c.codes, code)
	}
}

// value gathers row i as a Value. Allocation-free: string values alias the
// dictionary entry.
func (c *column) value(i int) Value {
	if c.isNull(i) {
		return Value{}
	}
	switch c.kind {
	case KindInt:
		return Value{kind: KindInt, i: c.ints[i]}
	case KindFloat:
		return Value{kind: KindFloat, f: c.floats[i]}
	case KindString:
		return Value{kind: KindString, s: c.dict.strs[c.codes[i]]}
	default: // KindNull column: every row is null
		return Value{}
	}
}

// equalCells reports whether row pa of column a and row pb of column b —
// columns of possibly different relations — hold Equal values, read in
// place. Ints compare directly; floats compare with < and > (so NaN and ±0
// are Equal exactly as Compare has them); strings compare codes when the
// columns share a dictionary and the strings otherwise; an Int/Float pair
// compares exactly (cmpIntFloat), and other kinds never match.
func equalCells(a *column, pa int, b *column, pb int) bool {
	na, nb := a.isNull(pa), b.isNull(pb)
	if na || nb {
		return na && nb
	}
	if a.kind != b.kind {
		switch {
		case a.kind == KindInt && b.kind == KindFloat:
			return cmpIntFloat(a.ints[pa], b.floats[pb]) == 0
		case a.kind == KindFloat && b.kind == KindInt:
			return cmpIntFloat(b.ints[pb], a.floats[pa]) == 0
		}
		return false
	}
	switch a.kind {
	case KindInt:
		return a.ints[pa] == b.ints[pb]
	case KindFloat:
		x, y := a.floats[pa], b.floats[pb]
		return !(x < y) && !(x > y)
	case KindString:
		if a.dict.root == b.dict.root {
			return a.codes[pa] == b.codes[pb]
		}
		return a.dict.strs[a.codes[pa]] == b.dict.strs[b.codes[pb]]
	default: // KindNull: every row is null, handled above
		return true
	}
}

// snapshot returns a copy of the column whose slices are clamped to the
// first n entries in both length and capacity, so appends to the original
// can never surface through the snapshot. The dictionary's entries are
// shared through a frozen copy: they are append-only and codes below the
// clamp stay valid forever.
func (c *column) snapshot(n int) column {
	out := column{kind: c.kind}
	if c.dict != nil {
		out.dict = c.dict.frozen()
	}
	switch c.kind {
	case KindInt:
		out.ints = c.ints[:n:n]
	case KindFloat:
		out.floats = c.floats[:n:n]
	case KindString:
		out.codes = c.codes[:n:n]
	}
	w := (n + 63) >> 6
	if w > len(c.nulls) {
		w = len(c.nulls)
	}
	out.nulls = c.nulls[:w:w]
	if w > 0 && w == (n+63)>>6 && n&63 != 0 {
		// The last word also holds the bits of rows appended after row
		// n, which setNull writes in place: the snapshot reads a copy.
		out.nulls = append(c.nulls[:w-1:w-1], c.nulls[w-1])
	}
	return out
}

// bytes estimates the column's resident size excluding the dictionary
// (counted once per relation).
func (c *column) bytes() int {
	return len(c.ints)*8 + len(c.floats)*8 + len(c.codes)*4 + len(c.nulls)*8
}
