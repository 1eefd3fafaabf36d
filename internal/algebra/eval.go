package algebra

import (
	"fmt"

	"relest/internal/parallel"
	"relest/internal/relation"
)

// Eval evaluates the expression exactly against the catalog and returns the
// result relation. It is the ground truth that every estimator in this
// repository is measured against: code-index joins for equi-joins, key-set
// algorithms for the set operations, full duplicate elimination for π.
//
// Selections return zero-copy views over their input; joins, products,
// projections and set operations build fresh columnar relations by
// column-wise copy, never materializing intermediate tuples.
//
// Eval materializes every intermediate result, which makes it the
// set-semantics oracle Count is validated against — and too expensive for
// anything but validation, small exports and the π/∪/∩/− counts Count
// routes here. Counting goes through Count instead; the relestlint
// `materialize` rule flags Eval calls outside this package so the escape
// hatch stays deliberate.
func Eval(e *Expr, cat Catalog) (*relation.Relation, error) {
	switch e.op {
	case OpBase:
		r, ok := cat.Relation(e.relName)
		if !ok {
			return nil, fmt.Errorf("algebra: no relation %q in catalog", e.relName)
		}
		if !r.Schema().EqualLayout(e.schema) {
			return nil, fmt.Errorf("algebra: relation %q layout %s does not match expression schema %s",
				e.relName, r.Schema(), e.schema)
		}
		return r, nil

	case OpSelect:
		child, err := Eval(e.left, cat)
		if err != nil {
			return nil, err
		}
		var keep []int
		var one [1]relation.Row
		child.EachRow(func(i int, row relation.Row) bool {
			one[0] = row
			if e.pred.eval(one[:]) {
				keep = append(keep, i)
			}
			return true
		})
		return child.Subset("σ("+child.Name()+")", keep), nil

	case OpProject:
		child, err := Eval(e.left, cat)
		if err != nil {
			return nil, err
		}
		out := relation.New("π("+child.Name()+")", e.schema)
		seen := make(map[string]struct{}, child.Len())
		var keyBuf []byte
		proj := make(relation.Tuple, len(e.projCols))
		child.EachRow(func(i int, row relation.Row) bool {
			keyBuf = row.AppendKey(keyBuf[:0], e.projCols)
			if _, dup := seen[string(keyBuf)]; !dup {
				seen[string(keyBuf)] = struct{}{}
				for j, c := range e.projCols {
					proj[j] = row.Value(c)
				}
				out.MustAppend(proj)
			}
			return true
		})
		return out, nil

	case OpProduct:
		left, err := Eval(e.left, cat)
		if err != nil {
			return nil, err
		}
		right, err := Eval(e.right, cat)
		if err != nil {
			return nil, err
		}
		out := relation.New("×", e.schema)
		out.Grow(left.Len() * right.Len())
		for i := 0; i < left.Len(); i++ {
			for j := 0; j < right.Len(); j++ {
				out.AppendJoined(left, i, right, j)
			}
		}
		return out, nil

	case OpJoin:
		left, err := Eval(e.left, cat)
		if err != nil {
			return nil, err
		}
		right, err := Eval(e.right, cat)
		if err != nil {
			return nil, err
		}
		// Build on the smaller side; probe rows in storage order so the
		// output ordering matches the row-store evaluator exactly.
		out := relation.New("⋈", e.schema)
		theta := e.theta.eval
		var pair [2]relation.Row
		emit := func(li, ri int) {
			if theta != nil {
				// θ reads the left row as row 0 and the right as row 1.
				pair = [2]relation.Row{left.Row(li), right.Row(ri)}
				if !theta(pair[:]) {
					return
				}
			}
			out.AppendJoined(left, li, right, ri)
		}
		// One lookup pass collects each probe row's bucket so the output
		// can reserve the exact (pre-theta) match count up front; the emit
		// pass then appends without a reallocation cascade.
		if right.Len() <= left.Len() {
			matches, total := joinProbe(right, e.joinRight, left, e.joinLeft)
			out.Grow(total)
			for i, m := range matches {
				for _, j := range m {
					emit(i, j)
				}
			}
		} else {
			matches, total := joinProbe(left, e.joinLeft, right, e.joinRight)
			out.Grow(total)
			for j, m := range matches {
				for _, i := range m {
					emit(i, j)
				}
			}
		}
		return out, nil

	case OpUnion, OpIntersect, OpDiff:
		left, err := Eval(e.left, cat)
		if err != nil {
			return nil, err
		}
		right, err := Eval(e.right, cat)
		if err != nil {
			return nil, err
		}
		return evalSetOp(e.op, e.schema, left, right), nil

	default:
		return nil, fmt.Errorf("algebra: cannot evaluate op %s", e.op)
	}
}

// joinProbe codes build's buildCols and probe's probeCols in one key
// domain, which lives only for the call, indexes build by code and looks
// every row of probe up, returning each probe row's bucket (shared with
// the index) and the total match count.
func joinProbe(build *relation.Relation, buildCols []int, probe *relation.Relation, probeCols []int) ([][]int, int) {
	keys := relation.NewKeyDomain()
	ix := relation.NewIndex(build.KeyCodes(buildCols, keys), nil)
	matches := make([][]int, probe.Len())
	total := 0
	for i, code := range probe.KeyCodes(probeCols, keys) {
		matches[i] = ix.Lookup(code)
		total += len(matches[i])
	}
	return matches, total
}

// Count evaluates COUNT(E) exactly, routed by the expression itself: with a
// π or a set operation anywhere, it is the length of Eval's set-semantics
// result; otherwise E is σ/⋈/× only, Normalize yields one term with
// coefficient 1, and the count is that term's satisfying assignments over
// the catalog's full relations — the estimator's term evaluator at a
// census (every N_i/n_i is 1), holding candidate lists, key codes and
// indexes but nothing per output row. The term's parts are counted with
// parallel.For at the process default worker count (parallel.SetWorkers,
// i.e. relest -workers) and added in part order; counts are exact below
// 2^53.
func Count(e *Expr, cat Catalog) (int64, error) {
	if e.HasProjection() || e.HasSetOp() {
		r, err := Eval(e, cat)
		if err != nil {
			return 0, err
		}
		return int64(r.Len()), nil
	}
	p, err := Normalize(e)
	if err != nil {
		return 0, err
	}
	t := &p.Terms[0]
	inst, err := BindInstances(t, cat)
	if err != nil {
		return 0, err
	}
	pt, err := Prepare(t, inst)
	if err != nil {
		return 0, err
	}
	parts := pt.Parts()
	counts := make([]float64, parts)
	parallel.For(parts, parallel.Resolve(0), func(part int) { counts[part] = pt.CountPart(part, parts) })
	total := 0.0
	for _, c := range counts {
		total += c
	}
	return int64(total), nil
}

func evalSetOp(op Op, schema *relation.Schema, left, right *relation.Relation) *relation.Relation {
	out := relation.New(op.String(), schema)
	var keyBuf []byte
	rowKey := func(row relation.Row) []byte {
		keyBuf = row.AppendKey(keyBuf[:0], nil)
		return keyBuf
	}
	switch op {
	case OpUnion:
		seen := make(map[string]struct{}, left.Len()+right.Len())
		add := func(src *relation.Relation) {
			src.EachRow(func(i int, row relation.Row) bool {
				k := rowKey(row)
				if _, dup := seen[string(k)]; !dup {
					seen[string(k)] = struct{}{}
					out.AppendFrom(src, i)
				}
				return true
			})
		}
		add(left)
		add(right)
	case OpIntersect:
		rightKeys := make(map[string]struct{}, right.Len())
		right.EachRow(func(i int, row relation.Row) bool {
			rightKeys[string(rowKey(row))] = struct{}{}
			return true
		})
		emitted := make(map[string]struct{}, left.Len())
		left.EachRow(func(i int, row relation.Row) bool {
			k := rowKey(row)
			if _, in := rightKeys[string(k)]; in {
				if _, dup := emitted[string(k)]; !dup {
					emitted[string(k)] = struct{}{}
					out.AppendFrom(left, i)
				}
			}
			return true
		})
	case OpDiff:
		rightKeys := make(map[string]struct{}, right.Len())
		right.EachRow(func(i int, row relation.Row) bool {
			rightKeys[string(rowKey(row))] = struct{}{}
			return true
		})
		emitted := make(map[string]struct{}, left.Len())
		left.EachRow(func(i int, row relation.Row) bool {
			k := rowKey(row)
			if _, in := rightKeys[string(k)]; !in {
				if _, dup := emitted[string(k)]; !dup {
					emitted[string(k)] = struct{}{}
					out.AppendFrom(left, i)
				}
			}
			return true
		})
	}
	return out
}
