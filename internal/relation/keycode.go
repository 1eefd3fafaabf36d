package relation

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// KeyDomain codes join keys into dense int32 codes: Equal keys get one
// code, distinct keys distinct codes, from whichever column or relation
// they come. It is the one definition of a join match: every equi-join
// step buckets its rows by code (Index) and probes with the code of the
// bound key, so no join hashes or compares a cell of its own.
//
// Codes are assigned in first-seen order and never change (the table is
// append-only). Code 0 is null, since null joins null under Equal. A
// numeric is keyed by its float64 bits with −0 folded into +0 (numBits),
// so Int(2) and Float(2.0) share a code; an int that float64 does not hold
// exactly (past ±2^53) equals no float and is keyed by its own bits; a
// NaN is keyed by its bit pattern, as appendKey has it. A string is keyed
// by its content: each dictionary's entries are coded once, so a string
// row codes by one array read. A key over several columns is one tuple
// code: the pair (code of the first column, code of the second) is a key
// of its own, and a third column pairs with that pair's code, and so on,
// so two keys share a tuple code exactly when they agree column by column.
//
// The table is open-addressing with linear probing. In front of it, a
// direct table codes an Int key in a small non-negative range by one array
// read: direct[v] is v's code + 1, recorded the first time v is coded
// through the hash path while the table covers it (below directSpan times
// the slot count, so its size follows the keys the domain holds). It only
// remembers what the hash path answered, so codes keep their first-seen
// order and Int(2) keeps Float(2.0)'s code. A domain is safe for
// concurrent use: a code vector is coded under its lock.
//
// A key is its kind and 64 bits: numBits for a numeric, the int's own
// bits for an int past ±2^53, its index in strs for a string, and the two
// component codes for a tuple. Kinds and bits are kept in parallel
// slices, 9 bytes a key.
type KeyDomain struct {
	mu     sync.Mutex
	memo   bool              // views memoize their code vectors in the domain (KeyCodes)
	shift  uint              // slot of hash h is h >> shift
	slots  []int32           // code + 1; 0 = empty
	direct []int32           // Int key v → code + 1; 0 = not recorded (remember)
	kinds  []uint8           // code → keyNull, keyNum, keyInt, keyStr or keyTuple; code 0 is null
	bits   []uint64          // code → the key's bits
	strs   []string          // the string keys, in first-seen order
	dicts  map[*dict][]int32 // per dictionary: entry → code + 1; 0 = not coded yet
}

const (
	keyNull = iota
	keyNum
	keyInt
	keyStr
	keyTuple
)

// directSpan bounds the direct table: it covers the Int keys below
// directSpan × len(slots), so it is at most twice the slot table's size.
const directSpan = 2

// tupleSeed moves a tuple's hash away from a numeric key's with the same
// bits, so the two do not share a probe chain.
const tupleSeed = 0x9e3779b97f4a7c15

// NewKeyDomain returns a domain that holds only null's code, 0, and whose
// code vectors belong to whoever asks for them: a plan, a plan cache or
// one join codes its keys in a domain of its own, and the codes die with
// it.
func NewKeyDomain() *KeyDomain { return newKeyDomain(false, 0) }

// NewMemoKeyDomain returns a domain whose code vectors views memoize
// (KeyCodes): one that lives as long as the views it codes, as a
// synopsis's does, so a view codes a key once in its life.
func NewMemoKeyDomain() *KeyDomain { return newKeyDomain(true, 0) }

// newKeyDomain returns a domain sized for the given number of keys.
func newKeyDomain(memo bool, keys int) *KeyDomain {
	size := 16
	for size < 2*(keys+1) {
		size <<= 1
	}
	return &KeyDomain{
		memo:  memo,
		shift: uint(64 - bits.Len(uint(size-1))),
		slots: make([]int32, size),
		kinds: append(make([]uint8, 0, keys+1), keyNull),
		bits:  append(make([]uint64, 0, keys+1), 0),
	}
}

// Bytes estimates the domain's resident size: the slot table, the keys
// and the dictionaries' code tables (strings alias their dictionaries).
func (d *KeyDomain) Bytes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	b := len(d.slots)*4 + cap(d.direct)*4 + cap(d.kinds) + cap(d.bits)*8 + cap(d.strs)*16
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

// remember records the code c of the Int key v in the direct table when
// the table covers v, growing the table (doubling, up to its bound) to
// reach it.
func (d *KeyDomain) remember(v int64, c int32) {
	limit := directSpan * len(d.slots)
	if v < 0 || v >= int64(limit) {
		return
	}
	if n := int(v) + 1; n > len(d.direct) {
		grown := make([]int32, min(max(n, 2*len(d.direct), 64), limit))
		copy(grown, d.direct)
		d.direct = grown
	}
	d.direct[v] = c + 1
}

// tupleCode returns the code of the pair of codes (a, b).
func (d *KeyDomain) tupleCode(a, b int32) int32 {
	bits := uint64(uint32(a))<<32 | uint64(uint32(b))
	return d.code(keyTuple, bits, "", mixBits(bits^tupleSeed))
}

// code returns the code of the key of the given kind with the given bits,
// or of the string s when kind is keyStr, assigning the next code when
// the key is new; h is the key's hash (keyHash). The caller holds d.mu.
func (d *KeyDomain) code(kind uint8, bits uint64, s string, h uint64) int32 {
	c, slot := d.find(kind, bits, s, h)
	if c >= 0 {
		return c
	}
	c = int32(len(d.kinds))
	d.slots[slot] = c + 1
	if kind == keyStr {
		bits = uint64(len(d.strs))
		d.strs = append(d.strs, s)
	}
	d.kinds = append(d.kinds, kind)
	d.bits = append(d.bits, bits)
	if 2*len(d.kinds) > len(d.slots) {
		d.resize()
	}
	return c
}

// find returns the key's code, or -1 and the empty slot that ends its
// probe chain: the slot a new key takes.
func (d *KeyDomain) find(kind uint8, bits uint64, s string, h uint64) (int32, uint64) {
	mask := uint64(len(d.slots) - 1)
	for slot := h >> d.shift; ; slot = (slot + 1) & mask {
		c := d.slots[slot] - 1
		if c < 0 {
			return -1, slot
		}
		if d.kinds[c] != kind {
			continue
		}
		if kind == keyStr && d.strs[d.bits[c]] == s || kind != keyStr && d.bits[c] == bits {
			return c, slot
		}
	}
}

// keyHash returns code c's hash: its bits mixed (an int past ±2^53 with
// its bits inverted first, apart from the floats, and a tuple's moved by
// tupleSeed), or its string's Value.Hash, which dictionaries cache.
func (d *KeyDomain) keyHash(c int) uint64 {
	switch d.kinds[c] {
	case keyInt:
		return mixBits(^d.bits[c])
	case keyStr:
		return Str(d.strs[d.bits[c]]).Hash()
	case keyTuple:
		return mixBits(d.bits[c] ^ tupleSeed)
	default:
		return mixBits(d.bits[c])
	}
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

// codeRows codes the key over columns cols of r's logical rows
// [from, len(out)) into out: one column's codes, or the tuple codes of
// several columns' codes, chained left to right.
func (d *KeyDomain) codeRows(r *Relation, cols []int, out []int32, from int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out = out[from:]
	d.codeColumn(r, cols[0], out, from)
	if len(cols) == 1 {
		return
	}
	next := make([]int32, len(out))
	for _, col := range cols[1:] {
		d.codeColumn(r, col, next, from)
		for i, c := range next {
			out[i] = d.tupleCode(out[i], c)
		}
	}
}

// codeColumn codes column col of r's logical rows [from, from+len(out))
// into out. The caller holds d.mu.
func (d *KeyDomain) codeColumn(r *Relation, col int, out []int32, from int) {
	c := &r.cols[col]
	var strs []int32 // c's dictionary entries' codes + 1
	if c.kind == KindString {
		if d.dicts == nil {
			d.dicts = make(map[*dict][]int32)
		}
		strs = d.dicts[c.dict]
		defer func() { d.dicts[c.dict] = strs }()
	}
	for i := range out {
		p := r.phys(from + i)
		if c.isNull(p) {
			out[i] = 0
			continue
		}
		switch c.kind {
		case KindInt:
			v := c.ints[p]
			if uint64(v) < uint64(len(d.direct)) && d.direct[v] != 0 {
				out[i] = d.direct[v] - 1
				continue
			}
			out[i] = d.intCode(v)
			d.remember(v, out[i])
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

// codeMemo is a view's memo of one key's code vector in one domain, built
// at most once by its sync.Once. An entry Extend carried over from the
// view it grew from holds that view's codes in from, which the build
// extends by the appended rows' codes: in place when grow is set (the
// first Extend of that view, see Relation.Extend) and from has the room,
// in a copy otherwise.
type codeMemo struct {
	cols  []int
	dom   *KeyDomain
	once  sync.Once
	codes atomic.Pointer[[]int32]
	from  []int32
	grow  bool
}

// KeyCodes returns the codes in dom of the key over columns cols, one per
// logical row: rows whose key cells are Equal column by column get equal
// codes, and only they. A key over several columns is one tuple code.
//
// On a view, in a domain made by NewMemoKeyDomain, the vector is coded
// once per column list and domain, on first use, and every caller gets
// the same slice; a view Extend grew from one that had its codes copies
// them and codes only the rows it added. Anywhere else — a base relation,
// which can grow by appending, or a domain that dies with its caller — the
// vector is coded on every call and lives as long as the caller holds it.
// The slice must not be modified.
func (r *Relation) KeyCodes(cols []int, dom *KeyDomain) []int32 {
	if r.view == nil || !dom.memo {
		codes := make([]int32, r.n)
		dom.codeRows(r, cols, codes, 0)
		return codes
	}
	r.memoMu.Lock()
	var e *codeMemo
	for _, m := range r.codes {
		if m.dom == dom && slices.Equal(m.cols, cols) {
			e = m
			break
		}
	}
	if e == nil {
		e = &codeMemo{cols: slices.Clone(cols), dom: dom}
		r.codes = append(r.codes, e)
	}
	r.memoMu.Unlock()
	e.once.Do(func() {
		codes := e.from
		if !e.grow || cap(codes) < r.n {
			codes = slices.Grow(codes[:len(codes):len(codes)], cap(r.view)-len(codes))
		}
		codes = codes[:r.n]
		dom.codeRows(r, e.cols, codes, len(e.from))
		e.codes.Store(&codes)
		e.from = nil
	})
	return *e.codes.Load()
}

// Alias returns a view of r's rows that shares r's storage and every code
// vector built on r so far, but memoizes what is built on it from then on
// for itself: a synopsis clone codes its keys in a domain of its own, and
// its codes must not pile up on the view it shares. The alias's row and
// code vectors keep no spare room, so its Extend copies rather than write
// into a tail r may grow into. A base relation is its own alias.
func (r *Relation) Alias() *Relation {
	if r.view == nil {
		return r
	}
	out := &Relation{name: r.name, schema: r.schema, cols: r.cols, n: r.n, view: slices.Clip(r.view)}
	r.memoMu.Lock()
	for _, m := range r.codes {
		if c := m.codes.Load(); c != nil {
			clipped := slices.Clip(*c)
			e := &codeMemo{cols: m.cols, dom: m.dom}
			e.once.Do(func() { e.codes.Store(&clipped) })
			out.codes = append(out.codes, e)
		}
	}
	r.memoMu.Unlock()
	return out
}

// memoBytes sums the resident size of the view's built code vectors.
func (r *Relation) memoBytes() int {
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	total := 0
	for _, m := range r.codes {
		if c := m.codes.Load(); c != nil {
			total += len(*c) * 4
		}
	}
	return total
}
