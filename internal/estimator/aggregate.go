package estimator

import (
	"fmt"

	"relest/internal/algebra"
	"relest/internal/relation"
)

// Aggregate estimation beyond COUNT — the extension the authors published
// as the TODS 1991 follow-up ("Statistical estimators for aggregate
// relational algebra queries"). SUM over a numeric output column of a
// π-free expression is a weighted count:
//
//	SUM_col(E) = Σ_{assignments satisfying E} value(col),
//
// so the same counting-polynomial machinery applies with each satisfying
// assignment contributing its column value times the sampling weight. The
// estimator inherits COUNT's unbiasedness (including the repeated-relation
// pattern weights). AVG = SUM/COUNT is a ratio of two unbiased estimators
// — itself biased O(1/n) but consistent, as is standard for ratio
// estimators.

// sumPoly resolves a SUM: the counting polynomial of e and the contribution
// reading col, which must be a numeric column of e's output schema; null
// values contribute zero (SQL SUM semantics over non-null values).
func sumPoly(e *algebra.Expr, col string) (algebra.Polynomial, termContrib, error) {
	pos := e.Schema().ColumnIndex(col)
	if pos < 0 {
		return algebra.Polynomial{}, termContrib{}, fmt.Errorf("estimator: no column %q in expression schema %s", col, e.Schema())
	}
	switch k := e.Schema().Column(pos).Kind; k {
	case relation.KindInt, relation.KindFloat:
	default:
		return algebra.Polynomial{}, termContrib{}, fmt.Errorf("estimator: SUM over non-numeric column %q (%s)", col, k)
	}
	poly, err := algebra.Normalize(e)
	return poly, sumContrib(pos), err
}

// AvgResult is the ratio estimate AVG = SUM/COUNT with its components.
type AvgResult struct {
	// Avg is the ratio estimate (NaN when the count estimate is 0).
	Avg float64
	// Sum and Count are the underlying unbiased estimates.
	Sum, Count Estimate
}
