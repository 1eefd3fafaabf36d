package relation

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueAccessors(t *testing.T) {
	if Int(7).Int64() != 7 {
		t.Error("Int64")
	}
	if Float(2.5).Float64() != 2.5 {
		t.Error("Float64")
	}
	if Int(3).Float64() != 3.0 {
		t.Error("int widening")
	}
	if Str("ab").Text() != "ab" {
		t.Error("Text")
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value should be null")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	cases := []func(){
		func() { Str("x").Int64() },
		func() { Int(1).Text() },
		func() { Str("x").Float64() },
		func() { Null().Float64() },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	// null < numerics < strings; cross-kind numeric comparison.
	ordered := []Value{Null(), Float(-3.5), Int(-1), Int(0), Float(0.5), Int(2), Float(2.5), Str(""), Str("a"), Str("b")}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestValueCrossKindEquality(t *testing.T) {
	if !Int(2).Equal(Float(2.0)) {
		t.Error("Int(2) should equal Float(2)")
	}
	if Int(2).Hash() != Float(2.0).Hash() {
		t.Error("equal values must hash identically")
	}
	if Int(2).Equal(Float(2.5)) {
		t.Error("Int(2) should not equal Float(2.5)")
	}
	if Float(0.0).Hash() != Float(negZero()).Hash() {
		t.Error("-0 and +0 must hash identically")
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

func TestValueHashEqualConsistency(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		if va.Equal(vb) && va.Hash() != vb.Hash() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueKeyEncodingInjective(t *testing.T) {
	vals := []Value{
		Null(), Int(0), Int(1), Int(-1), Float(0.5), Float(1),
		Str(""), Str("a"), Str("ab"), Str("b"),
	}
	for i, a := range vals {
		for j, b := range vals {
			ka := string(a.appendKey(nil))
			kb := string(b.appendKey(nil))
			if a.Equal(b) != (ka == kb) {
				t.Errorf("key consistency broken for %v (%d) vs %v (%d)", a, i, b, j)
			}
		}
	}
	// Int(1) and Float(1) must share a key (they are Equal).
	if string(Int(1).appendKey(nil)) != string(Float(1).appendKey(nil)) {
		t.Error("Int(1) and Float(1) keys differ")
	}
}

func TestTupleKeyCompositeNoAmbiguity(t *testing.T) {
	// ("a", "bc") must not collide with ("ab", "c").
	t1 := Tuple{Str("a"), Str("bc")}
	t2 := Tuple{Str("ab"), Str("c")}
	if t1.Key(nil) == t2.Key(nil) {
		t.Error("composite keys collide across boundary shifts")
	}
	// Subset keys.
	t3 := Tuple{Int(1), Str("x"), Float(2)}
	if t3.Key([]int{0, 2}) != (Tuple{Int(1), Float(2)}).Key(nil) {
		t.Error("column-subset key mismatch")
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue("42", KindInt)
	if err != nil || v.Int64() != 42 {
		t.Errorf("parse int: %v %v", v, err)
	}
	v, err = ParseValue("2.5", KindFloat)
	if err != nil || v.Float64() != 2.5 {
		t.Errorf("parse float: %v %v", v, err)
	}
	v, err = ParseValue("hi", KindString)
	if err != nil || v.Text() != "hi" {
		t.Errorf("parse string: %v %v", v, err)
	}
	v, err = ParseValue("", KindInt)
	if err != nil || !v.IsNull() {
		t.Errorf("empty cell should be null: %v %v", v, err)
	}
	if _, err := ParseValue("abc", KindInt); err == nil {
		t.Error("expected parse error")
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "a", Kind: KindInt}); err == nil {
		t.Error("duplicate names should fail")
	}
	if _, err := NewSchema(Column{Name: "", Kind: KindInt}); err == nil {
		t.Error("empty name should fail")
	}
	s := MustSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindString})
	if s.ColumnIndex("b") != 1 || s.ColumnIndex("z") != -1 {
		t.Error("ColumnIndex")
	}
	if got := s.String(); got != "(a int, b string)" {
		t.Errorf("String() = %q", got)
	}
}

// TestParseSchemaRoundTrip pins ParseSchema to the String format: every
// schema survives the text round-trip, and malformed inputs fail loudly.
func TestParseSchemaRoundTrip(t *testing.T) {
	s := MustSchema(Column{"a", KindInt}, Column{"x", KindFloat}, Column{"name", KindString})
	got, err := ParseSchema(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != s.String() {
		t.Errorf("round-trip %q -> %q", s.String(), got.String())
	}
	for i := 0; i < s.Len(); i++ {
		if got.Column(i) != s.Column(i) {
			t.Errorf("column %d = %+v, want %+v", i, got.Column(i), s.Column(i))
		}
	}
	for _, bad := range []string{"", "a int", "(a int", "a int)", "(a)", "(a int extra)", "(a bool)", "(a int, a int)"} {
		if _, err := ParseSchema(bad); err == nil {
			t.Errorf("ParseSchema(%q) succeeded, want error", bad)
		}
	}
}

func TestSchemaProjectAndConcat(t *testing.T) {
	s := MustSchema(Column{"a", KindInt}, Column{"b", KindString}, Column{"c", KindFloat})
	p, err := s.Project([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Column(0).Name != "c" || p.Column(1).Name != "a" {
		t.Errorf("projected schema %s", p)
	}
	if _, err := s.Project([]int{5}); err == nil {
		t.Error("out-of-range projection should fail")
	}
	t2 := MustSchema(Column{"a", KindInt}, Column{"d", KindInt})
	c, err := s.Concat(t2, "R2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 5 || c.ColumnIndex("R2.a") != 3 || c.ColumnIndex("d") != 4 {
		t.Errorf("concat schema %s", c)
	}
}

func TestSchemaEqualLayout(t *testing.T) {
	a := MustSchema(Column{"x", KindInt}, Column{"y", KindString})
	b := MustSchema(Column{"p", KindInt}, Column{"q", KindString})
	c := MustSchema(Column{"p", KindInt})
	d := MustSchema(Column{"p", KindString}, Column{"q", KindInt})
	if !a.EqualLayout(b) {
		t.Error("a and b should have equal layout")
	}
	if a.EqualLayout(c) || a.EqualLayout(d) {
		t.Error("layout mismatches not detected")
	}
}

func testRelation(t *testing.T) *Relation {
	t.Helper()
	r := New("R", MustSchema(Column{"id", KindInt}, Column{"name", KindString}))
	r.MustAppend(Tuple{Int(1), Str("a")})
	r.MustAppend(Tuple{Int(2), Str("b")})
	r.MustAppend(Tuple{Int(3), Str("a")})
	return r
}

func TestRelationAppendValidation(t *testing.T) {
	r := testRelation(t)
	if err := r.Append(Tuple{Int(4)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := r.Append(Tuple{Str("x"), Str("y")}); err == nil {
		t.Error("kind mismatch should fail")
	}
	if err := r.Append(Tuple{Null(), Null()}); err != nil {
		t.Errorf("nulls should be accepted: %v", err)
	}
	if r.Len() != 4 {
		t.Errorf("len = %d", r.Len())
	}
}

func TestRelationSubsetAndClone(t *testing.T) {
	r := testRelation(t)
	s := r.Subset("S", []int{2, 0, 2})
	if s.Len() != 3 || s.Value(0, 0).Int64() != 3 || s.Value(2, 0).Int64() != 3 {
		t.Errorf("subset wrong: %v", s)
	}
	c := r.Clone("C")
	if c.Len() != r.Len() || c.Name() != "C" {
		t.Error("clone wrong")
	}
}

func TestRelationDistinctRowsDistinct(t *testing.T) {
	r := New("R", MustSchema(Column{"x", KindInt}))
	for _, v := range []int64{1, 2, 1, 3, 2, 1} {
		r.MustAppend(Tuple{Int(v)})
	}
	if r.RowsDistinct(r.Len()) {
		t.Error("r has duplicates")
	}
	d := r.Distinct("D")
	if d.Len() != 3 || !d.RowsDistinct(d.Len()) {
		t.Errorf("distinct: %v", d)
	}
	// Order preserved: 1, 2, 3.
	if d.Value(0, 0).Int64() != 1 || d.Value(1, 0).Int64() != 2 || d.Value(2, 0).Int64() != 3 {
		t.Error("distinct order not preserved")
	}
}

func TestRelationSortAndEach(t *testing.T) {
	r := New("R", MustSchema(Column{"x", KindInt}))
	for _, v := range []int64{3, 1, 2} {
		r.MustAppend(Tuple{Int(v)})
	}
	r.Sort()
	var got []int64
	r.Each(func(i int, tp Tuple) bool {
		got = append(got, tp[0].Int64())
		return true
	})
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("sorted order %v", got)
	}
	// Early stop.
	count := 0
	r.Each(func(i int, tp Tuple) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestIndex(t *testing.T) {
	r := testRelation(t)
	dom := NewKeyDomain()
	ix := indexOn(r, []int{1}, dom) // index on name
	hits := probeValues(ix, dom, Str("a"))
	if len(hits) != 2 {
		t.Errorf("lookup 'a' returned %v", hits)
	}
	if got := probeValues(ix, dom, Str("zzz")); len(got) != 0 {
		t.Errorf("lookup miss returned %v", got)
	}
	if filled(ix) != 2 {
		t.Errorf("filled buckets = %d", filled(ix))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := testRelation(t)
	r.MustAppend(Tuple{Null(), Str("has,comma")})
	var buf bytes.Buffer
	if err := ExportCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ImportCSV("R2", bytes.NewReader(buf.Bytes()), r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != r.Len() {
		t.Fatalf("round trip len %d != %d", got.Len(), r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		if !got.Materialize(i).Equal(r.Materialize(i)) {
			t.Errorf("row %d: %v != %v", i, got.Materialize(i), r.Materialize(i))
		}
	}
}

func TestCSVInference(t *testing.T) {
	csv := "id,score,label\n1,2.5,a\n2,3,b\n,,\n"
	r, err := ImportCSV("T", strings.NewReader(csv), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Schema()
	if s.Column(0).Kind != KindInt || s.Column(1).Kind != KindFloat || s.Column(2).Kind != KindString {
		t.Errorf("inferred schema %s", s)
	}
	if r.Len() != 3 || !r.IsNull(2, 0) {
		t.Errorf("rows: %d, last: %v", r.Len(), r.Materialize(2))
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ImportCSV("E", strings.NewReader(""), nil); err == nil {
		t.Error("empty CSV should fail")
	}
	schema := MustSchema(Column{"a", KindInt})
	if _, err := ImportCSV("E", strings.NewReader("a,b\n1,2\n"), schema); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := ImportCSV("E", strings.NewReader("a\nxyz\n"), schema); err == nil {
		t.Error("bad int cell should fail")
	}
}

func TestTupleCompare(t *testing.T) {
	a := Tuple{Int(1), Str("a")}
	b := Tuple{Int(1), Str("b")}
	c := Tuple{Int(1)}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("tuple compare wrong")
	}
	if c.Compare(a) != -1 || a.Compare(c) != 1 {
		t.Error("prefix tuple should order first")
	}
	if a.Equal(c) || !a.Equal(Tuple{Float(1), Str("a")}) {
		t.Error("tuple equality wrong")
	}
}
