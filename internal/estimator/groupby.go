package estimator

import (
	"context"
	"fmt"
	"sort"

	"relest/internal/algebra"
	"relest/internal/parallel"
	"relest/internal/relation"
)

// Group-by estimation: COUNT(*) GROUP BY col over a π-free expression,
// from the same synopsis. Each group's count is a restricted COUNT(E) (the
// contribution is the indicator of the group value) under the same
// sampling weights, so the per-group estimates inherit the COUNT
// estimator's exact unbiasedness under every design it supports — tuple,
// page and stratified — and sum to the COUNT estimate.
//
// The caveat is coverage, not bias: a group none of whose contributing
// tuples were sampled produces no output row at all, so small groups are
// systematically missing from the result — the classical limitation of
// sampling for group-by queries. Callers needing group *presence*
// guarantees want a census of the grouping column (cheap for
// low-cardinality columns), not a sample.

// GroupEstimate is one group's estimated count.
type GroupEstimate struct {
	// Value is the group's value of the grouping column.
	Value relation.Value
	// Count is the unbiased estimate of the group's row count.
	Count float64
}

// groupCount estimates COUNT(*) GROUP BY col over the π-free expression e.
// Results are sorted by descending estimated count (ties by value order)
// and include only groups observed in the sample. Cancellation is polled
// between terms, as in pointEstimate.
func groupCount(ctx context.Context, e *algebra.Expr, col string, syn *Synopsis, opts Options) ([]GroupEstimate, error) {
	pos := e.Schema().ColumnIndex(col)
	if pos < 0 {
		return nil, fmt.Errorf("estimator: no column %q in expression schema %s", col, e.Schema())
	}
	poly, err := algebra.Normalize(e)
	if err != nil {
		return nil, err
	}
	eng, err := startEstimate(ctx, poly, syn, opts)
	if err != nil {
		return nil, err
	}
	defer eng.span.End()
	// Terms (or, for a single term, its plan partitions) fan out across
	// workers; per-term group maps merge in term order so the counts are
	// identical for every worker count.
	termAccs := make([]map[string]*GroupEstimate, len(poly.Terms))
	outer, inner := splitWorkers(len(poly.Terms), eng.workers)
	err = parallel.ForErrRec(len(poly.Terms), outer, eng.rec, func(i int) error {
		if err := eng.cancelled(); err != nil {
			return err
		}
		ts := eng.span.Child(sTerm)
		defer ts.End()
		termAccs[i] = map[string]*GroupEstimate{}
		return accumulateGroups(&poly.Terms[i], syn, pos, eng, inner, termAccs[i])
	})
	if err != nil {
		return nil, err
	}
	acc := map[string]*GroupEstimate{}
	for _, ta := range termAccs {
		mergeGroups(acc, ta)
	}
	out := make([]GroupEstimate, 0, len(acc))
	for _, k := range sortedGroupKeys(acc) {
		out = append(out, *acc[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count > out[j].Count {
			return true
		}
		if out[i].Count < out[j].Count {
			return false
		}
		return out[i].Value.Compare(out[j].Value) < 0
	})
	return out, nil
}

// mergeGroups folds src into dst by group key, iterating src's keys in
// sorted order so each dst.Count accumulates in a reproducible sequence
// regardless of map layout (the maprange-float determinism contract).
func mergeGroups(dst, src map[string]*GroupEstimate) {
	for _, k := range sortedGroupKeys(src) {
		g := src[k]
		d, ok := dst[k]
		if !ok {
			dst[k] = g
			continue
		}
		d.Count += g.Count
	}
}

// sortedGroupKeys returns m's keys in sorted order.
func sortedGroupKeys(m map[string]*GroupEstimate) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// accumulateGroups adds one term's weighted per-group contributions,
// partitioning the enumeration across up to `workers` goroutines with
// per-part group maps merged in part order.
func accumulateGroups(t *algebra.Term, syn *Synopsis, pos int, eng *engine, workers int, acc map[string]*GroupEstimate) error {
	if pos >= len(t.Out) {
		return fmt.Errorf("estimator: output column %d outside term mapping of width %d", pos, len(t.Out))
	}
	ref := t.Out[pos]
	b, err := eng.bindTerm(t, syn)
	if b == nil {
		return err
	}
	coef := float64(t.Coef)
	parts := b.pt.Parts()
	partAccs := make([]map[string]*GroupEstimate, parts)
	parallel.For(parts, workers, func(part int) {
		local := map[string]*GroupEstimate{}
		b.pt.EnumeratePart(part, parts, func(rows []int) bool {
			v := b.inst[ref.Occ].Value(rows[ref.Occ], ref.Col)
			k := relation.Tuple{v}.Key(nil)
			g, ok := local[k]
			if !ok {
				g = &GroupEstimate{Value: v}
				local[k] = g
			}
			g.Count += coef * weight(b.metas, rows)
			return true
		})
		partAccs[part] = local
	})
	for _, pa := range partAccs {
		mergeGroups(acc, pa)
	}
	return nil
}
