package algebra

import (
	"fmt"

	"relest/internal/relation"
)

// Predicate is a boolean condition over the tuples of some schema. Concrete
// predicates reference columns by name; they are resolved to positions when
// the enclosing expression node is constructed. Structured predicates
// (comparisons and boolean combinators) expose their column sets, which lets
// the normalizer push single-relation conditions down to the base-relation
// occurrence they constrain.
//
// A predicate binds once, to a function over a slice of rows read in place:
// a position map says which row, and which column of it, each schema
// position reads. σ puts every position on row 0 (oneRow), a θ-join puts
// the right schema on row 1, and a term predicate gets one row per
// occurrence it reads. A predicate pushed down to one occurrence of a term
// binds instead as a RowFilter over candidate lists (bindFilter): Cmp
// against a constant and And have a typed one, every other predicate's row
// closure is wrapped.
type Predicate interface {
	// Columns returns the column names the predicate reads.
	Columns() []string
	// bind resolves names against s; position p reads column at[p].Col of
	// rows[at[p].Occ].
	bind(s *relation.Schema, at []ColRef) (func(rows []relation.Row) bool, error)
}

// RowFilter is a predicate pushed down to one occurrence of a term: it
// filters a list of logical rows of r in place and returns the rows the
// predicate holds on, in the order given, so an ascending list stays
// ascending.
type RowFilter func(r *relation.Relation, rows []int) []int

// listFilter is the optional typed path of a predicate pushed down to one
// occurrence: a filter over whole candidate lists that reads the column
// vectors in place (Cmp against a constant, And of such parts). bind stays
// the one required method; bindFilter wraps every other predicate's row
// closure once.
type listFilter interface {
	bindFilter(s *relation.Schema, at []ColRef) (RowFilter, error)
}

// bindFilter binds p, whose positions all read row 0, as a list filter:
// its typed filter when it has one, else its row closure called per row.
func bindFilter(p Predicate, s *relation.Schema, at []ColRef) (RowFilter, error) {
	if lf, ok := p.(listFilter); ok {
		return lf.bindFilter(s, at)
	}
	eval, err := p.bind(s, at)
	if err != nil {
		return nil, err
	}
	return func(r *relation.Relation, rows []int) []int {
		var one [1]relation.Row
		out := rows[:0]
		for _, i := range rows {
			one[0] = r.Row(i)
			if eval(one[:]) {
				out = append(out, i)
			}
		}
		return out
	}, nil
}

// boundPred is a predicate resolved against a specific schema.
type boundPred struct {
	eval func([]relation.Row) bool
	cols []int // positions read, for pushdown analysis
	src  Predicate
}

// oneRow maps every position of s to the same column of row 0.
func oneRow(s *relation.Schema) []ColRef {
	at := make([]ColRef, s.Len())
	for i := range at {
		at[i] = ColRef{Col: i}
	}
	return at
}

func bindPredicate(p Predicate, s *relation.Schema, at []ColRef) (boundPred, error) {
	eval, err := p.bind(s, at)
	if err != nil {
		return boundPred{}, err
	}
	// bind succeeded, so every column resolves.
	names := p.Columns()
	cols := make([]int, len(names))
	for i, n := range names {
		cols[i] = s.ColumnIndex(n)
	}
	return boundPred{eval: eval, cols: cols, src: p}, nil
}

// column resolves a column name to the row and column it is read from.
func column(s *relation.Schema, at []ColRef, name string) (ColRef, error) {
	pos := s.ColumnIndex(name)
	if pos < 0 {
		return ColRef{}, fmt.Errorf("no column %q in schema %s", name, s)
	}
	return at[pos], nil
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators for Cmp predicates.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the SQL-ish spelling of the operator.
func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(o))
	}
}

// holds applies op to a three-way comparison result.
func (o CmpOp) holds(cmp int) bool {
	switch o {
	case EQ:
		return cmp == 0
	case NE:
		return cmp != 0
	case LT:
		return cmp < 0
	case LE:
		return cmp <= 0
	case GT:
		return cmp > 0
	case GE:
		return cmp >= 0
	default:
		return false
	}
}

// Cmp compares a column against a constant: col op val. Comparisons
// involving null are false (SQL three-valued logic collapsed to false).
type Cmp struct {
	Col string
	Op  CmpOp
	Val relation.Value
}

// Columns implements Predicate.
func (c Cmp) Columns() []string { return []string{c.Col} }

func (c Cmp) bind(s *relation.Schema, at []ColRef) (func([]relation.Row) bool, error) {
	ref, err := column(s, at, c.Col)
	if err != nil {
		return nil, err
	}
	op, val := c.Op, c.Val
	if val.IsNull() {
		return func([]relation.Row) bool { return false }, nil
	}
	return func(rows []relation.Row) bool {
		v := rows[ref.Occ].Value(ref.Col)
		if v.IsNull() {
			return false
		}
		return op.holds(v.Compare(val))
	}, nil
}

// bindFilter implements listFilter: the column's typed vector is compared
// against the constant over the whole list (relation.FilterCmp), with the
// operator resolved once into a verdict per three-way result.
func (c Cmp) bindFilter(s *relation.Schema, at []ColRef) (RowFilter, error) {
	ref, err := column(s, at, c.Col)
	if err != nil {
		return nil, err
	}
	col, val := ref.Col, c.Val
	keep := [3]bool{c.Op.holds(-1), c.Op.holds(0), c.Op.holds(1)}
	return func(r *relation.Relation, rows []int) []int {
		return r.FilterCmp(rows, col, val, keep)
	}, nil
}

// String renders the comparison.
func (c Cmp) String() string { return fmt.Sprintf("%s %s %s", c.Col, c.Op, c.Val) }

// ColCmp compares two columns of the same schema: a op b. Used mainly as a
// theta condition over a concatenated join schema. Null comparisons are
// false.
type ColCmp struct {
	A  string
	Op CmpOp
	B  string
}

// Columns implements Predicate.
func (c ColCmp) Columns() []string { return []string{c.A, c.B} }

func (c ColCmp) bind(s *relation.Schema, at []ColRef) (func([]relation.Row) bool, error) {
	ra, err := column(s, at, c.A)
	if err != nil {
		return nil, err
	}
	rb, err := column(s, at, c.B)
	if err != nil {
		return nil, err
	}
	op := c.Op
	return func(rows []relation.Row) bool {
		a, b := rows[ra.Occ].Value(ra.Col), rows[rb.Occ].Value(rb.Col)
		if a.IsNull() || b.IsNull() {
			return false
		}
		return op.holds(a.Compare(b))
	}, nil
}

// And is the conjunction of its parts; an empty And is true.
type And []Predicate

// Columns implements Predicate.
func (a And) Columns() []string { return unionColumns(a) }

func (a And) bind(s *relation.Schema, at []ColRef) (func([]relation.Row) bool, error) {
	evals, err := bindAll(a, s, at)
	if err != nil {
		return nil, err
	}
	return func(rows []relation.Row) bool {
		for _, e := range evals {
			if !e(rows) {
				return false
			}
		}
		return true
	}, nil
}

// bindFilter implements listFilter: the parts' filters applied in turn.
func (a And) bindFilter(s *relation.Schema, at []ColRef) (RowFilter, error) {
	filters := make([]RowFilter, len(a))
	for i, p := range a {
		f, err := bindFilter(p, s, at)
		if err != nil {
			return nil, err
		}
		filters[i] = f
	}
	return func(r *relation.Relation, rows []int) []int {
		for _, f := range filters {
			rows = f(r, rows)
		}
		return rows
	}, nil
}

// Or is the disjunction of its parts; an empty Or is false.
type Or []Predicate

// Columns implements Predicate.
func (o Or) Columns() []string { return unionColumns(o) }

func (o Or) bind(s *relation.Schema, at []ColRef) (func([]relation.Row) bool, error) {
	evals, err := bindAll(o, s, at)
	if err != nil {
		return nil, err
	}
	return func(rows []relation.Row) bool {
		for _, e := range evals {
			if e(rows) {
				return true
			}
		}
		return false
	}, nil
}

// bindAll binds the parts of a boolean combinator.
func bindAll(ps []Predicate, s *relation.Schema, at []ColRef) ([]func([]relation.Row) bool, error) {
	evals := make([]func([]relation.Row) bool, len(ps))
	for i, p := range ps {
		e, err := p.bind(s, at)
		if err != nil {
			return nil, err
		}
		evals[i] = e
	}
	return evals, nil
}

// Not negates a predicate.
type Not struct{ P Predicate }

// Columns implements Predicate.
func (n Not) Columns() []string { return n.P.Columns() }

func (n Not) bind(s *relation.Schema, at []ColRef) (func([]relation.Row) bool, error) {
	e, err := n.P.bind(s, at)
	if err != nil {
		return nil, err
	}
	return func(rows []relation.Row) bool { return !e(rows) }, nil
}

// FuncOnCols is the escape hatch: an arbitrary function over the values of
// the named columns, in the given order. The function must be pure.
type FuncOnCols struct {
	Cols []string
	Fn   func(vals []relation.Value) bool
}

// Columns implements Predicate.
func (f FuncOnCols) Columns() []string { return append([]string(nil), f.Cols...) }

func (f FuncOnCols) bind(s *relation.Schema, at []ColRef) (func([]relation.Row) bool, error) {
	if f.Fn == nil {
		return nil, fmt.Errorf("FuncOnCols has nil Fn")
	}
	refs := make([]ColRef, len(f.Cols))
	for i, c := range f.Cols {
		ref, err := column(s, at, c)
		if err != nil {
			return nil, err
		}
		refs[i] = ref
	}
	fn := f.Fn
	// A fresh vals slice per call: the user function may retain it.
	return func(rows []relation.Row) bool {
		vals := make([]relation.Value, len(refs))
		for i, ref := range refs {
			vals[i] = rows[ref.Occ].Value(ref.Col)
		}
		return fn(vals)
	}, nil
}

// unionColumns merges the column sets of several predicates, preserving
// first-occurrence order.
func unionColumns(ps []Predicate) []string {
	seen := map[string]struct{}{}
	var out []string
	for _, p := range ps {
		for _, c := range p.Columns() {
			if _, dup := seen[c]; !dup {
				seen[c] = struct{}{}
				out = append(out, c)
			}
		}
	}
	return out
}
