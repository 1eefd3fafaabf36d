// Package materialize is a deliberately-broken fixture for the
// materialize analyzer.
package materialize

import (
	"relest/internal/algebra"
	"relest/internal/relation"
)

// materializingCount evaluates the whole tree into a relation just to
// take its length: finding.
func materializingCount(e *algebra.Expr, cat algebra.Catalog) (int64, error) {
	r, err := algebra.Eval(e, cat)
	if err != nil {
		return 0, err
	}
	return int64(r.Len()), nil
}

// exactCount counts through algebra.Count: no finding.
func exactCount(e *algebra.Expr, cat algebra.Catalog) (int64, error) {
	return algebra.Count(e, cat)
}

// methodEval calls an unrelated method that happens to be named Eval:
// no finding — the rule targets the package-level evaluator only.
type evaluator struct{}

func (evaluator) Eval() int { return 1 }

func methodEval() int {
	var ev evaluator
	return ev.Eval()
}

// localEval shadows the name in another package entirely: no finding.
func localEval(e *algebra.Expr, cat algebra.Catalog) error {
	eval := func(e *algebra.Expr, cat algebra.Catalog) error { return nil }
	return eval(e, cat)
}

// suppressed carries a reasoned ignore directive: no finding.
func suppressed(e *algebra.Expr, cat algebra.Catalog) (*relation.Relation, error) {
	//lint:ignore materialize fixture: exercising the suppression path
	return algebra.Eval(e, cat)
}
