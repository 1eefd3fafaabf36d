// Package algebra implements the relational algebra layer: typed expression
// trees over named base relations, structured predicates, an exact
// (hash-join based) evaluator used as ground truth, and the normalization of
// COUNT(E) into a counting polynomial — the ±1-weighted sum of conjunctive
// terms that the paper's estimators are defined over.
//
// Expressions use set semantics: base relations are assumed duplicate-free
// where set operations are involved, σ/×/⋈ of sets are sets, and π
// eliminates duplicates. The estimator layer documents exactly which
// fragment each of its estimators supports.
package algebra

import (
	"fmt"

	"relest/internal/relation"
)

// Catalog resolves base-relation names to stored relations. The exact
// evaluator reads full relations through it; the estimators substitute
// sampled relations under the same names.
type Catalog interface {
	// Relation returns the relation registered under name.
	Relation(name string) (*relation.Relation, bool)
}

// MapCatalog is the trivial map-backed Catalog.
type MapCatalog map[string]*relation.Relation

// Relation implements Catalog.
func (m MapCatalog) Relation(name string) (*relation.Relation, bool) {
	r, ok := m[name]
	return r, ok
}

// Op identifies an expression node type.
type Op uint8

// Expression node types.
const (
	OpBase Op = iota
	OpSelect
	OpProject
	OpProduct
	OpJoin
	OpUnion
	OpIntersect
	OpDiff
)

// String returns the operator's conventional name.
func (o Op) String() string {
	switch o {
	case OpBase:
		return "base"
	case OpSelect:
		return "select"
	case OpProject:
		return "project"
	case OpProduct:
		return "product"
	case OpJoin:
		return "join"
	case OpUnion:
		return "union"
	case OpIntersect:
		return "intersect"
	case OpDiff:
		return "diff"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Expr is a relational algebra expression node. Expressions are immutable
// after construction and carry their output schema.
type Expr struct {
	op     Op
	schema *relation.Schema

	// base
	relName string

	// children
	left, right *Expr

	// select
	pred boundPred

	// project
	projCols []int // positions in left's schema

	// join
	joinLeft, joinRight []int     // equi-join column positions in left/right schemas
	theta               boundPred // optional residual predicate over the concatenated schema
}

// Op returns the node's operator.
func (e *Expr) Op() Op { return e.op }

// Schema returns the node's output schema.
func (e *Expr) Schema() *relation.Schema { return e.schema }

// BaseName returns the base relation name for OpBase nodes, "" otherwise.
func (e *Expr) BaseName() string { return e.relName }

// Left and Right return the child expressions (nil when absent).
func (e *Expr) Left() *Expr  { return e.left }
func (e *Expr) Right() *Expr { return e.right }

// BaseNames returns the multiset of base relation names appearing in the
// expression, in left-to-right occurrence order.
func (e *Expr) BaseNames() []string {
	var out []string
	var walk func(x *Expr)
	walk = func(x *Expr) {
		if x == nil {
			return
		}
		if x.op == OpBase {
			out = append(out, x.relName)
			return
		}
		walk(x.left)
		walk(x.right)
	}
	walk(e)
	return out
}

// HasProjection reports whether the expression contains a π node anywhere.
// Projection (duplicate elimination) is the operator that separates the
// unbiased counting-polynomial estimators from the distinct-count
// estimators.
func (e *Expr) HasProjection() bool {
	if e == nil {
		return false
	}
	if e.op == OpProject {
		return true
	}
	return e.left.HasProjection() || e.right.HasProjection()
}

// HasSetOp reports whether the expression contains ∪, ∩ or −. Set
// operations require duplicate-free base relations for the counting
// identities to be exact.
func (e *Expr) HasSetOp() bool {
	if e == nil {
		return false
	}
	switch e.op {
	case OpUnion, OpIntersect, OpDiff:
		return true
	}
	return e.left.HasSetOp() || e.right.HasSetOp()
}

// String renders the expression tree in functional notation.
func (e *Expr) String() string {
	switch e.op {
	case OpBase:
		return e.relName
	case OpSelect:
		return fmt.Sprintf("select(%s)", e.left)
	case OpProject:
		names := make([]string, len(e.projCols))
		for i, c := range e.projCols {
			names[i] = e.left.schema.Column(c).Name
		}
		return fmt.Sprintf("project%v(%s)", names, e.left)
	case OpProduct:
		return fmt.Sprintf("product(%s, %s)", e.left, e.right)
	case OpJoin:
		return fmt.Sprintf("join(%s, %s)", e.left, e.right)
	case OpUnion:
		return fmt.Sprintf("union(%s, %s)", e.left, e.right)
	case OpIntersect:
		return fmt.Sprintf("intersect(%s, %s)", e.left, e.right)
	case OpDiff:
		return fmt.Sprintf("diff(%s, %s)", e.left, e.right)
	default:
		return e.op.String()
	}
}

// Base creates a leaf referencing the named base relation with the given
// schema. The schema must match the relation registered in the catalog at
// evaluation time (layout is verified by the evaluator).
func Base(name string, schema *relation.Schema) *Expr {
	return &Expr{op: OpBase, relName: name, schema: schema}
}

// BaseOf creates a leaf for a stored relation.
func BaseOf(r *relation.Relation) *Expr { return Base(r.Name(), r.Schema()) }

// Select creates σ_p(child). The predicate's columns are resolved against
// the child's schema at construction.
func Select(child *Expr, p Predicate) (*Expr, error) {
	bp, err := bindPredicate(p, child.schema, oneRow(child.schema))
	if err != nil {
		return nil, fmt.Errorf("algebra: select: %w", err)
	}
	return &Expr{op: OpSelect, schema: child.schema, left: child, pred: bp}, nil
}

// Project creates π_cols(child) with duplicate elimination (set semantics).
func Project(child *Expr, cols ...string) (*Expr, error) {
	positions := make([]int, len(cols))
	for i, c := range cols {
		p := child.schema.ColumnIndex(c)
		if p < 0 {
			return nil, fmt.Errorf("algebra: project: no column %q in %s", c, child.schema)
		}
		positions[i] = p
	}
	ps, err := child.schema.Project(positions)
	if err != nil {
		return nil, fmt.Errorf("algebra: project: %w", err)
	}
	return &Expr{op: OpProject, schema: ps, left: child, projCols: positions}, nil
}

// Product creates the cartesian product left × right. Column-name
// collisions in the right schema are prefixed with rightPrefix and a dot.
func Product(left, right *Expr, rightPrefix string) (*Expr, error) {
	s, err := left.schema.Concat(right.schema, rightPrefix)
	if err != nil {
		return nil, fmt.Errorf("algebra: product: %w", err)
	}
	return &Expr{op: OpProduct, schema: s, left: left, right: right}, nil
}

// On is one equi-join condition: left.Left = right.Right.
type On struct {
	Left, Right string
}

// Join creates the equi-join left ⋈ right on the given column pairs, with
// an optional residual theta predicate over the concatenated schema (pass
// nil for a pure equi-join). Column-name collisions from the right schema
// are prefixed with rightPrefix and a dot. At least one equi condition is
// required; for arbitrary theta joins use Product followed by Select.
func Join(left, right *Expr, on []On, theta Predicate, rightPrefix string) (*Expr, error) {
	if len(on) == 0 {
		return nil, fmt.Errorf("algebra: join requires at least one equi condition")
	}
	s, err := left.schema.Concat(right.schema, rightPrefix)
	if err != nil {
		return nil, fmt.Errorf("algebra: join: %w", err)
	}
	jl := make([]int, len(on))
	jr := make([]int, len(on))
	for i, c := range on {
		jl[i] = left.schema.ColumnIndex(c.Left)
		if jl[i] < 0 {
			return nil, fmt.Errorf("algebra: join: no column %q in left schema %s", c.Left, left.schema)
		}
		jr[i] = right.schema.ColumnIndex(c.Right)
		if jr[i] < 0 {
			return nil, fmt.Errorf("algebra: join: no column %q in right schema %s", c.Right, right.schema)
		}
	}
	e := &Expr{op: OpJoin, schema: s, left: left, right: right, joinLeft: jl, joinRight: jr}
	if theta != nil {
		// Left positions read row 0, right positions row 1.
		at := oneRow(s)
		for i := left.schema.Len(); i < len(at); i++ {
			at[i] = ColRef{Occ: 1, Col: i - left.schema.Len()}
		}
		bp, err := bindPredicate(theta, s, at)
		if err != nil {
			return nil, fmt.Errorf("algebra: join theta: %w", err)
		}
		e.theta = bp
	}
	return e, nil
}

// Union creates left ∪ right (set semantics). Schemas must have equal
// layouts; the output schema is the left schema.
func Union(left, right *Expr) (*Expr, error) { return setOp(OpUnion, left, right) }

// Intersect creates left ∩ right (set semantics).
func Intersect(left, right *Expr) (*Expr, error) { return setOp(OpIntersect, left, right) }

// Diff creates left − right (set semantics).
func Diff(left, right *Expr) (*Expr, error) { return setOp(OpDiff, left, right) }

func setOp(op Op, left, right *Expr) (*Expr, error) {
	if !left.schema.EqualLayout(right.schema) {
		return nil, fmt.Errorf("algebra: %s: schema layouts differ: %s vs %s", op, left.schema, right.schema)
	}
	return &Expr{op: op, schema: left.schema, left: left, right: right}, nil
}

// Must unwraps an (Expr, error) pair, panicking on error; for tests and
// statically correct expression literals.
func Must(e *Expr, err error) *Expr {
	if err != nil {
		panic(err)
	}
	return e
}
