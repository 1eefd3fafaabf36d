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
// Each predicate binds twice: bind produces a Tuple evaluator (used on
// virtual tuples that term evaluation assembles across occurrences), and
// bindRow produces a Row evaluator that reads column storage directly
// without materializing anything — the hot path for selections and pushed-
// down local predicates.
type Predicate interface {
	// Columns returns the column names the predicate reads.
	Columns() []string
	// bind resolves names against a schema and returns the tuple evaluator.
	bind(s *relation.Schema) (func(relation.Tuple) bool, error)
	// bindRow resolves names against a schema and returns the row evaluator.
	bindRow(s *relation.Schema) (func(relation.Row) bool, error)
}

// boundPred is a predicate resolved against a specific schema.
type boundPred struct {
	eval    func(relation.Tuple) bool
	evalRow func(relation.Row) bool
	cols    []int // positions read, for pushdown analysis
	src     Predicate
}

func bindPredicate(p Predicate, s *relation.Schema) (boundPred, error) {
	eval, err := p.bind(s)
	if err != nil {
		return boundPred{}, err
	}
	evalRow, err := p.bindRow(s)
	if err != nil {
		return boundPred{}, err
	}
	names := p.Columns()
	cols := make([]int, len(names))
	for i, n := range names {
		c := s.ColumnIndex(n)
		if c < 0 {
			return boundPred{}, fmt.Errorf("predicate column %q not in schema %s", n, s)
		}
		cols[i] = c
	}
	return boundPred{eval: eval, evalRow: evalRow, cols: cols, src: p}, nil
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

func (c Cmp) bind(s *relation.Schema) (func(relation.Tuple) bool, error) {
	pos := s.ColumnIndex(c.Col)
	if pos < 0 {
		return nil, fmt.Errorf("no column %q in schema %s", c.Col, s)
	}
	op, val := c.Op, c.Val
	return func(t relation.Tuple) bool {
		v := t[pos]
		if v.IsNull() || val.IsNull() {
			return false
		}
		return op.holds(v.Compare(val))
	}, nil
}

func (c Cmp) bindRow(s *relation.Schema) (func(relation.Row) bool, error) {
	pos := s.ColumnIndex(c.Col)
	if pos < 0 {
		return nil, fmt.Errorf("no column %q in schema %s", c.Col, s)
	}
	op, val := c.Op, c.Val
	if val.IsNull() {
		return func(relation.Row) bool { return false }, nil
	}
	return func(row relation.Row) bool {
		v := row.Value(pos)
		if v.IsNull() {
			return false
		}
		return op.holds(v.Compare(val))
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

func (c ColCmp) resolve(s *relation.Schema) (pa, pb int, err error) {
	pa, pb = s.ColumnIndex(c.A), s.ColumnIndex(c.B)
	if pa < 0 {
		return 0, 0, fmt.Errorf("no column %q in schema %s", c.A, s)
	}
	if pb < 0 {
		return 0, 0, fmt.Errorf("no column %q in schema %s", c.B, s)
	}
	return pa, pb, nil
}

func (c ColCmp) bind(s *relation.Schema) (func(relation.Tuple) bool, error) {
	pa, pb, err := c.resolve(s)
	if err != nil {
		return nil, err
	}
	op := c.Op
	return func(t relation.Tuple) bool {
		a, b := t[pa], t[pb]
		if a.IsNull() || b.IsNull() {
			return false
		}
		return op.holds(a.Compare(b))
	}, nil
}

func (c ColCmp) bindRow(s *relation.Schema) (func(relation.Row) bool, error) {
	pa, pb, err := c.resolve(s)
	if err != nil {
		return nil, err
	}
	op := c.Op
	return func(row relation.Row) bool {
		a, b := row.Value(pa), row.Value(pb)
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

func (a And) bind(s *relation.Schema) (func(relation.Tuple) bool, error) {
	evals := make([]func(relation.Tuple) bool, len(a))
	for i, p := range a {
		e, err := p.bind(s)
		if err != nil {
			return nil, err
		}
		evals[i] = e
	}
	return func(t relation.Tuple) bool {
		for _, e := range evals {
			if !e(t) {
				return false
			}
		}
		return true
	}, nil
}

func (a And) bindRow(s *relation.Schema) (func(relation.Row) bool, error) {
	evals := make([]func(relation.Row) bool, len(a))
	for i, p := range a {
		e, err := p.bindRow(s)
		if err != nil {
			return nil, err
		}
		evals[i] = e
	}
	return func(row relation.Row) bool {
		for _, e := range evals {
			if !e(row) {
				return false
			}
		}
		return true
	}, nil
}

// Or is the disjunction of its parts; an empty Or is false.
type Or []Predicate

// Columns implements Predicate.
func (o Or) Columns() []string { return unionColumns(o) }

func (o Or) bind(s *relation.Schema) (func(relation.Tuple) bool, error) {
	evals := make([]func(relation.Tuple) bool, len(o))
	for i, p := range o {
		e, err := p.bind(s)
		if err != nil {
			return nil, err
		}
		evals[i] = e
	}
	return func(t relation.Tuple) bool {
		for _, e := range evals {
			if e(t) {
				return true
			}
		}
		return false
	}, nil
}

func (o Or) bindRow(s *relation.Schema) (func(relation.Row) bool, error) {
	evals := make([]func(relation.Row) bool, len(o))
	for i, p := range o {
		e, err := p.bindRow(s)
		if err != nil {
			return nil, err
		}
		evals[i] = e
	}
	return func(row relation.Row) bool {
		for _, e := range evals {
			if e(row) {
				return true
			}
		}
		return false
	}, nil
}

// Not negates a predicate.
type Not struct{ P Predicate }

// Columns implements Predicate.
func (n Not) Columns() []string { return n.P.Columns() }

func (n Not) bind(s *relation.Schema) (func(relation.Tuple) bool, error) {
	e, err := n.P.bind(s)
	if err != nil {
		return nil, err
	}
	return func(t relation.Tuple) bool { return !e(t) }, nil
}

func (n Not) bindRow(s *relation.Schema) (func(relation.Row) bool, error) {
	e, err := n.P.bindRow(s)
	if err != nil {
		return nil, err
	}
	return func(row relation.Row) bool { return !e(row) }, nil
}

// FuncOnCols is the escape hatch: an arbitrary function over the values of
// the named columns, in the given order. The function must be pure.
type FuncOnCols struct {
	Cols []string
	Fn   func(vals []relation.Value) bool
}

// Columns implements Predicate.
func (f FuncOnCols) Columns() []string { return append([]string(nil), f.Cols...) }

func (f FuncOnCols) resolve(s *relation.Schema) ([]int, error) {
	if f.Fn == nil {
		return nil, fmt.Errorf("FuncOnCols has nil Fn")
	}
	pos := make([]int, len(f.Cols))
	for i, c := range f.Cols {
		p := s.ColumnIndex(c)
		if p < 0 {
			return nil, fmt.Errorf("no column %q in schema %s", c, s)
		}
		pos[i] = p
	}
	return pos, nil
}

func (f FuncOnCols) bind(s *relation.Schema) (func(relation.Tuple) bool, error) {
	pos, err := f.resolve(s)
	if err != nil {
		return nil, err
	}
	fn := f.Fn
	return func(t relation.Tuple) bool {
		vals := make([]relation.Value, len(pos))
		for i, p := range pos {
			vals[i] = t[p]
		}
		return fn(vals)
	}, nil
}

func (f FuncOnCols) bindRow(s *relation.Schema) (func(relation.Row) bool, error) {
	pos, err := f.resolve(s)
	if err != nil {
		return nil, err
	}
	fn := f.Fn
	// A fresh vals slice per call keeps the user function free to retain
	// its argument, mirroring the Tuple binding.
	return func(row relation.Row) bool {
		vals := make([]relation.Value, len(pos))
		for i, p := range pos {
			vals[i] = row.Value(p)
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
