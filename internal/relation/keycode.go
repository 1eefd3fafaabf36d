package relation

import (
	"slices"
	"sync"
	"sync/atomic"
)

// KeyDomain codes single-column join keys into dense int32 codes: Equal
// keys get one code, distinct keys distinct codes, from whichever column
// or relation they come. A view codes a key column once (KeyCodes) and a
// term that joins two coded columns counts its join per code, with no
// hash, no slot walk and no cell verification per row.
//
// Codes are assigned in first-seen order and never change (the table is
// append-only). Code 0 is null, since null joins null under Equal. A
// numeric is keyed by its float64 bits with −0 folded into +0 (numBits),
// so Int(2) and Float(2.0) share a code; an int that float64 does not hold
// exactly (past ±2^53) equals no float and is keyed by its own bits; a
// NaN is keyed by its bit pattern, as appendKey and the hash index have
// it. A string is keyed by its content: each dictionary's entries are
// coded once, so a string row codes by one array read.
//
// The table is open-addressing with linear probing, like Index's slot
// table. A domain is safe for concurrent use: a code vector is coded
// under its lock, once per view and column.
//
// A key is its kind and 64 bits: numBits for a numeric, the int's own
// bits for an int past ±2^53, and for a string its index in strs. Kinds
// and bits are kept in parallel slices, 9 bytes a numeric key.
type KeyDomain struct {
	mu    sync.Mutex
	shift uint              // slot of hash h is h >> shift
	slots []int32           // code + 1; 0 = empty
	kinds []uint8           // code → keyNull, keyNum, keyInt or keyStr; code 0 is null
	bits  []uint64          // code → the key's bits
	strs  []string          // the string keys, in first-seen order
	dicts map[*dict][]int32 // per dictionary: entry → code + 1; 0 = not coded yet
	n     atomic.Int32      // len(kinds), readable without the lock
}

const (
	keyNull = iota
	keyNum
	keyInt
	keyStr
)

// NewKeyDomain returns a domain that holds only null's code, 0.
func NewKeyDomain() *KeyDomain {
	d := &KeyDomain{shift: 64 - 4, slots: make([]int32, 16), kinds: []uint8{keyNull}, bits: []uint64{0}}
	d.n.Store(1)
	return d
}

// Len returns the number of codes assigned: every code a code vector of
// the domain holds is below it.
func (d *KeyDomain) Len() int { return int(d.n.Load()) }

// Bytes estimates the domain's resident size: the slot table, the keys
// and the dictionaries' code tables (strings alias their dictionaries).
func (d *KeyDomain) Bytes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	b := len(d.slots)*4 + cap(d.kinds) + cap(d.bits)*8 + cap(d.strs)*16
	for _, codes := range d.dicts {
		b += cap(codes)*4 + 16
	}
	return b
}

// numCode returns the code of the float f.
func (d *KeyDomain) numCode(f float64) int32 {
	b := numBits(f)
	return d.code(keyNum, b, "", mixBits(b))
}

// intCode returns the code of the int i: a float's code when float64
// holds i exactly, its own otherwise.
func (d *KeyDomain) intCode(i int64) int32 {
	if f, exact := exactFloat(i); exact {
		return d.numCode(f)
	}
	b := uint64(i)
	return d.code(keyInt, b, "", mixBits(^b))
}

// code returns the code of the key of the given kind with the given bits,
// or of the string s when kind is keyStr, assigning the next code when
// the key is new; h is the key's hash (keyHash). The caller holds d.mu.
func (d *KeyDomain) code(kind uint8, bits uint64, s string, h uint64) int32 {
	mask := uint64(len(d.slots) - 1)
	for slot := h >> d.shift; ; slot = (slot + 1) & mask {
		c := d.slots[slot] - 1
		if c < 0 {
			c = int32(len(d.kinds))
			d.slots[slot] = c + 1
			if kind == keyStr {
				bits = uint64(len(d.strs))
				d.strs = append(d.strs, s)
			}
			d.kinds = append(d.kinds, kind)
			d.bits = append(d.bits, bits)
			d.n.Store(c + 1)
			if 2*len(d.kinds) > len(d.slots) {
				d.resize()
			}
			return c
		}
		if d.kinds[c] != kind {
			continue
		}
		if kind == keyStr && d.strs[d.bits[c]] == s || kind != keyStr && d.bits[c] == bits {
			return c
		}
	}
}

// keyHash returns code c's hash: its bits mixed (an int past ±2^53 with
// its bits inverted first, apart from the floats), or its string's
// Value.Hash, which dictionaries cache.
func (d *KeyDomain) keyHash(c int) uint64 {
	switch d.kinds[c] {
	case keyInt:
		return mixBits(^d.bits[c])
	case keyStr:
		return Str(d.strs[d.bits[c]]).Hash()
	default:
		return mixBits(d.bits[c])
	}
}

// resize doubles the slot table and re-slots every code from its hash.
// Null (code 0) has no slot: it is coded without a lookup.
func (d *KeyDomain) resize() {
	d.slots = make([]int32, 2*len(d.slots))
	d.shift--
	mask := uint64(len(d.slots) - 1)
	for c := 1; c < len(d.kinds); c++ {
		s := d.keyHash(c) >> d.shift
		for d.slots[s] != 0 {
			s = (s + 1) & mask
		}
		d.slots[s] = int32(c) + 1
	}
}

// codeRows codes column col of r's logical rows [from, len(out)) into out.
func (d *KeyDomain) codeRows(r *Relation, col int, out []int32, from int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := &r.cols[col]
	var strs []int32 // c's dictionary entries' codes + 1
	if c.kind == KindString {
		if d.dicts == nil {
			d.dicts = make(map[*dict][]int32)
		}
		strs = d.dicts[c.dict]
		defer func() { d.dicts[c.dict] = strs }()
	}
	for i := from; i < len(out); i++ {
		p := r.phys(i)
		if c.isNull(p) {
			out[i] = 0
			continue
		}
		switch c.kind {
		case KindInt:
			out[i] = d.intCode(c.ints[p])
		case KindFloat:
			out[i] = d.numCode(c.floats[p])
		case KindString:
			e := int(c.codes[p])
			if e >= len(strs) {
				strs = slices.Grow(strs, e+1-len(strs))[:e+1]
			}
			if strs[e] == 0 {
				strs[e] = d.code(keyStr, 0, c.dict.strs[e], c.dict.hashes[e]) + 1
			}
			out[i] = strs[e] - 1
		default: // KindNull: every row is null, handled above
			out[i] = 0
		}
	}
}

// codeMemo is a view's memo of one key column's code vector in one
// domain, built at most once by its sync.Once. An entry Extend carried
// over from the view it grew from holds that view's codes in from, which
// the build copies before it codes the appended rows.
type codeMemo struct {
	col   int
	dom   *KeyDomain
	once  sync.Once
	codes atomic.Pointer[[]int32]
	from  []int32
}

// KeyCodes returns the codes in dom of column col's cells, one per logical
// row: rows whose cells are Equal get equal codes, and only they. On a
// view the vector is coded once per column and domain, on first use, and
// every caller gets the same slice, which must not be modified; a view
// Extend grew from one that had its codes copies them and codes only the
// rows it added. A base relation, which can grow by appending, has no
// code vector: KeyCodes returns nil.
func (r *Relation) KeyCodes(col int, dom *KeyDomain) []int32 {
	if r.view == nil {
		return nil
	}
	r.memoMu.Lock()
	var e *codeMemo
	for _, m := range r.codes {
		if m.col == col && m.dom == dom {
			e = m
			break
		}
	}
	if e == nil {
		e = &codeMemo{col: col, dom: dom}
		r.codes = append(r.codes, e)
	}
	r.memoMu.Unlock()
	e.once.Do(func() {
		codes := make([]int32, r.n)
		dom.codeRows(r, col, codes, copy(codes, e.from))
		e.codes.Store(&codes)
		e.from = nil
	})
	return *e.codes.Load()
}

// Alias returns a view of r's rows that shares r's storage and every index
// and code vector built on r so far, but memoizes what is built on it from
// then on for itself: a synopsis clone codes its keys in a domain of its
// own, and its codes must not pile up on the view it shares. A base
// relation is its own alias.
func (r *Relation) Alias() *Relation {
	if r.view == nil {
		return r
	}
	out := &Relation{name: r.name, schema: r.schema, cols: r.cols, n: r.n, view: r.view}
	r.memoMu.Lock()
	for _, m := range r.memo {
		if ix := m.ix.Load(); ix != nil {
			e := &indexMemo{cols: m.cols}
			e.once.Do(func() { e.ix.Store(ix) })
			out.memo = append(out.memo, e)
		}
	}
	for _, m := range r.codes {
		if c := m.codes.Load(); c != nil {
			e := &codeMemo{col: m.col, dom: m.dom}
			e.once.Do(func() { e.codes.Store(c) })
			out.codes = append(out.codes, e)
		}
	}
	r.memoMu.Unlock()
	return out
}
