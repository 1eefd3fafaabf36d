// Package relation implements the in-memory row-store that the algebra,
// sampling and estimation layers operate on: typed values, schemas, tuples,
// relations, key codes and the join index, and CSV import/export.
//
// The design goals, in order: correctness of value semantics (comparison,
// hashing and null handling are used by every join and set operation above),
// cheap random access by row position (sampling addresses tuples by index),
// and zero dependencies beyond the standard library.
package relation

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the value types supported by the engine.
type Kind uint8

const (
	// KindNull is the type of the SQL-style null value.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is an immutable byte string.
	KindString
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a compact tagged union holding one typed datum. The zero Value
// is the null value. Values are immutable; all methods take value receivers.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null returns the null value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String returns a string value. The name Str avoids colliding with the
// fmt.Stringer method.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int64 returns the integer payload. It panics if the kind is not KindInt.
func (v Value) Int64() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("relation: Int64 on %s value", v.kind))
	}
	return v.i
}

// Float64 returns the numeric payload as a float64. Integers are widened.
// It panics for non-numeric kinds.
func (v Value) Float64() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		panic(fmt.Sprintf("relation: Float64 on %s value", v.kind))
	}
}

// Text returns the string payload. It panics if the kind is not KindString.
func (v Value) Text() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("relation: Text on %s value", v.kind))
	}
	return v.s
}

// String renders the value for display and CSV export.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return fmt.Sprintf("Value(kind=%d)", v.kind)
	}
}

// Equal reports value equality. Numeric values of different kinds compare
// numerically and exactly (Int(2) equals Float(2.0), Int(2^53+1) equals
// no float); null equals only null. This is the equality used by joins,
// intersections and duplicate elimination, so it must agree with Compare,
// with Hash (equal values hash equal) and with the Key encoding (equal
// values encode equal, and only they; a NaN is the one exception, see
// appendKey).
func (v Value) Equal(u Value) bool { return v.Compare(u) == 0 }

// Compare returns -1, 0 or +1 ordering v against u. The total order is:
// null < all numerics < all strings; numerics order numerically across
// kinds; strings order lexicographically. A deterministic total order across
// kinds keeps sort-based algorithms well defined even on mixed columns.
func (v Value) Compare(u Value) int {
	va, ub := v.class(), u.class()
	if va != ub {
		if va < ub {
			return -1
		}
		return 1
	}
	switch va {
	case 0: // both null
		return 0
	case 1: // both numeric
		// An int compares exactly, never through a rounded float64.
		switch {
		case v.kind == KindInt && u.kind == KindInt:
			switch {
			case v.i < u.i:
				return -1
			case v.i > u.i:
				return 1
			}
			return 0
		case v.kind == KindInt:
			return cmpIntFloat(v.i, u.f)
		case u.kind == KindInt:
			return -cmpIntFloat(u.i, v.f)
		}
		a, b := v.f, u.f
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	default: // both string
		switch {
		case v.s < u.s:
			return -1
		case v.s > u.s:
			return 1
		}
		return 0
	}
}

// cmpIntFloat orders the int i against the float f exactly: float64(i)
// rounds past ±2^53, so Int(2^53+1) would otherwise compare equal to
// Float(2^53). A NaN compares 0, as it does against every numeric.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= 1<<63:
		return -1
	case f < -(1 << 63):
		return 1
	}
	// f is inside int64's range, and its integer part is a float64, so
	// the conversion is exact.
	t := int64(f)
	switch {
	case i < t:
		return -1
	case i > t:
		return 1
	case f > float64(t):
		return -1
	case f < float64(t):
		return 1
	}
	return 0
}

// exactFloat returns float64(i) and whether it converts back to i: every
// int up to ±2^53 does, and past it only those float64 holds exactly.
func exactFloat(i int64) (float64, bool) {
	f := float64(i)
	if -1<<53 <= i && i <= 1<<53 {
		return f, true
	}
	return f, f < 1<<63 && int64(f) == i
}

// numBits returns f's bit pattern with −0 folded into +0: the two zeros
// are Equal, and every other numeric key is told apart by its bits.
func numBits(f float64) uint64 {
	b := math.Float64bits(f)
	if b == 1<<63 {
		b = 0
	}
	return b
}

// class buckets kinds into null(0) / numeric(1) / string(2) for Compare.
func (v Value) class() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		return 1
	default:
		return 2
	}
}

// fnv64 constants for value hashing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns a 64-bit hash of the value consistent with Equal: values
// that compare equal hash identically (in particular Int(2) and Float(2.0)).
func (v Value) Hash() uint64 {
	var h uint64 = fnvOffset
	mix := func(b byte) { h = (h ^ uint64(b)) * fnvPrime }
	switch v.kind {
	case KindNull:
		mix(0)
	case KindInt, KindFloat:
		// Hash the numeric value through its float64 bits so that Int(k)
		// and Float(k) collide, as Equal demands. Fold -0 into +0.
		f := v.Float64()
		//lint:ignore floateq -0 folding: ==0 is exactly true for both IEEE zeros, rewriting -0 to +0 before hashing
		if f == 0 {
			f = 0
		}
		bits := math.Float64bits(f)
		mix(1)
		for i := 0; i < 8; i++ {
			mix(byte(bits >> (8 * i)))
		}
	case KindString:
		mix(2)
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	}
	return h
}

// AppendKey appends a self-delimiting encoding of the value to dst such
// that two values have identical encodings iff they are Equal. It lets
// set operations and grouping build composite keys into a reusable buffer
// instead of allocating a string per row (Tuple.Key is the allocating
// form).
func (v Value) AppendKey(dst []byte) []byte { return v.appendKey(dst) }

// appendKey appends a self-delimiting encoding of the value to dst such
// that two values have identical encodings iff they are Equal: value
// identity outside joins (Distinct, set operations, grouping),
// which joins' key codes agree with. A numeric encodes its float64 bits, −0
// folded into +0, so Int(2) and Float(2.0) share one encoding; an int that
// float64 does not hold exactly (past ±2^53) equals no float and encodes
// its own bits under a tag of its own. A NaN encodes its bit pattern, so
// it shares a key only with a NaN of the same bits, although Compare puts
// it level with every numeric.
func (v Value) appendKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0)
	case KindInt, KindFloat:
		tag, bits := byte(1), numBits(v.f)
		if v.kind == KindInt {
			if f, exact := exactFloat(v.i); exact {
				bits = numBits(f)
			} else {
				tag, bits = 3, uint64(v.i)
			}
		}
		dst = append(dst, tag)
		for i := 0; i < 8; i++ {
			dst = append(dst, byte(bits>>(8*i)))
		}
		return dst
	default:
		dst = append(dst, 2)
		var lenbuf [4]byte
		n := len(v.s)
		lenbuf[0] = byte(n)
		lenbuf[1] = byte(n >> 8)
		lenbuf[2] = byte(n >> 16)
		lenbuf[3] = byte(n >> 24)
		dst = append(dst, lenbuf[:]...)
		return append(dst, v.s...)
	}
}

// ParseValue parses s into a Value of the given kind. Empty strings parse
// to null for every kind, matching the CSV convention used by Export.
func ParseValue(s string, k Kind) (Value, error) {
	if s == "" {
		return Null(), nil
	}
	switch k {
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relation: parsing %q as int: %w", s, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relation: parsing %q as float: %w", s, err)
		}
		return Float(f), nil
	case KindString:
		return Str(s), nil
	case KindNull:
		return Null(), nil
	default:
		return Value{}, fmt.Errorf("relation: unknown kind %v", k)
	}
}
