package estimator

import (
	"context"
	"fmt"
	"math"

	"relest/internal/algebra"
	"relest/internal/parallel"
	"relest/internal/relation"
	"relest/internal/stats"
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

// sumExpr estimates SUM(col) over e's result. The column must be a
// numeric column of e's output schema; null values contribute zero (SQL
// SUM semantics over non-null values). Cancellation follows countPoly's
// contract: polled between terms and between variance replicates, a
// non-nil error and no partial estimate.
func sumExpr(ctx context.Context, e *algebra.Expr, col string, syn *Synopsis, opts Options) (Estimate, error) {
	opts = opts.withDefaults()
	pos := e.Schema().ColumnIndex(col)
	if pos < 0 {
		return Estimate{}, fmt.Errorf("estimator: no column %q in expression schema %s", col, e.Schema())
	}
	switch k := e.Schema().Column(pos).Kind; k {
	case relation.KindInt, relation.KindFloat:
	default:
		return Estimate{}, fmt.Errorf("estimator: SUM over non-numeric column %q (%s)", col, k)
	}
	poly, err := algebra.Normalize(e)
	if err != nil {
		return Estimate{}, err
	}
	if err := checkSampleSizes(poly, syn); err != nil {
		return Estimate{}, err
	}
	eng := newEngine(ctx, opts)
	eng.span = eng.rec.Span(sEstimate)
	defer eng.span.End()
	recordSynopsis(eng.rec, poly, syn)
	eng.attachCSE(poly, syn)
	value, err := sumEstimate(poly, syn, pos, eng)
	if err != nil {
		return Estimate{}, err
	}
	// Variance: replication methods re-run the whole sum estimator; the
	// COUNT closed forms do not carry over to weighted counts, so VarAuto
	// and VarAnalytic degrade to split-sample here.
	method := opts.Variance
	if method == VarAnalytic || method == VarAuto {
		method = VarSplitSample
	}
	variance := math.NaN()
	if method != VarNone {
		vspan := eng.span.Child(sVariance)
		variance, err = replicateVariance(method, poly, syn, opts, eng, func(sub *Synopsis, sube *engine) (float64, error) {
			return sumEstimate(poly, sub, pos, sube)
		}, sumContrib(pos))
		vspan.End()
		if err != nil {
			if opts.Variance == VarSplitSample || opts.Variance == VarJackknife {
				return Estimate{}, err
			}
			method = VarNone // auto: fall back to point-only
		}
	}
	eng.rec.Add(varianceMethodMetric(method), 1)
	return finishEstimate(value, variance, method, poly.NumTerms(), opts), nil
}

// AvgResult is the ratio estimate AVG = SUM/COUNT with its components.
type AvgResult struct {
	// Avg is the ratio estimate (NaN when the count estimate is 0).
	Avg float64
	// Sum and Count are the underlying unbiased estimates.
	Sum, Count Estimate
}

// sumEstimate evaluates the weighted-count estimator: like pointEstimate,
// with each satisfying assignment contributing the value of the output
// column at position pos.
func sumEstimate(poly algebra.Polynomial, syn *Synopsis, pos int, eng *engine) (float64, error) {
	vals := make([]float64, len(poly.Terms))
	outer, inner := splitWorkers(len(poly.Terms), eng.workers)
	err := parallel.ForErrRec(len(poly.Terms), outer, eng.rec, func(i int) error {
		if err := eng.cancelled(); err != nil {
			return err
		}
		ts := eng.span.Child(sTerm)
		v, err := estimateTermSum(&poly.Terms[i], syn, pos, eng, inner)
		ts.End()
		vals[i] = v
		return err
	})
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i := range vals {
		total += float64(poly.Terms[i].Coef) * vals[i]
	}
	return total, nil
}

// estimateTermSum is estimateTerm with per-assignment column values. The
// output column position maps to an occurrence column through the term's
// Out mapping.
func estimateTermSum(t *algebra.Term, syn *Synopsis, pos int, eng *engine, workers int) (float64, error) {
	if pos >= len(t.Out) {
		return 0, fmt.Errorf("estimator: output column %d outside term mapping of width %d", pos, len(t.Out))
	}
	ref := t.Out[pos]
	inst, err := algebra.BindInstances(t, syn)
	if err != nil {
		return 0, err
	}
	metas, err := termRelMetas(t, syn)
	if err != nil {
		return 0, err
	}
	if ok, err := checkTermSamples(metas); !ok {
		return 0, err
	}
	uniform := true
	for _, m := range metas {
		if !m.rs.uniformWeights() {
			uniform = false
		}
	}
	pt, err := eng.prepare(t, inst)
	if err != nil {
		return 0, err
	}
	if !uniform {
		// Non-uniform (stratified) weights: Horvitz–Thompson weighting per
		// row; checkSampleSizes has already ruled out repeated relations.
		weightOf := make([]func(int) float64, len(t.Occs))
		for i, o := range t.Occs {
			weightOf[i] = syn.rels[o.RelName].rowWeightFn()
		}
		return sumTerm(pt, workers, func() func(rows []int) float64 {
			return func(rows []int) float64 {
				val := inst[ref.Occ].Value(rows[ref.Occ], ref.Col)
				if val.IsNull() {
					return 0
				}
				w := 1.0
				for i, row := range rows {
					w *= weightOf[i](row)
				}
				return w * val.Float64()
			}
		}), nil
	}
	return sumTerm(pt, workers, func() func(rows []int) float64 {
		distinct := make(map[int]struct{}, 4)
		return func(rows []int) float64 {
			val := inst[ref.Occ].Value(rows[ref.Occ], ref.Col)
			if val.IsNull() {
				return 0
			}
			w := 1.0
			for _, m := range metas {
				if len(m.occs) == 1 {
					w *= m.rs.scale()
					continue
				}
				for k := range distinct {
					delete(distinct, k)
				}
				for _, oi := range m.occs {
					distinct[rows[oi]] = struct{}{}
				}
				w *= stats.FallingFactorialRatio(m.rs.N, m.rs.n, len(distinct))
			}
			return w * val.Float64()
		}
	}), nil
}

// replicateVariance runs a replication-based variance method with an
// arbitrary re-estimation function (shared by SUM and the page-sampling
// estimators). contrib, when non-nil, is the per-assignment contribution
// underlying estimate and lets the jackknife take its single-pass path.
func replicateVariance(method VarianceMethod, poly algebra.Polynomial, syn *Synopsis, opts Options, eng *engine, estimate func(*Synopsis, *engine) (float64, error), contrib termContrib) (float64, error) {
	switch method {
	case VarSplitSample:
		return splitSampleVarianceFn(poly, syn, opts, eng, estimate)
	case VarJackknife:
		return jackknifeVarianceFn(poly, syn, eng, estimate, contrib)
	default:
		return 0, fmt.Errorf("estimator: replicateVariance does not support %v", method)
	}
}
