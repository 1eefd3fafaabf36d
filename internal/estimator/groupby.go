package estimator

import (
	"fmt"
	"sort"

	"relest/internal/algebra"
	"relest/internal/parallel"
	"relest/internal/relation"
	"relest/internal/stats"
)

// Group-by estimation: COUNT(*) GROUP BY col over a π-free expression,
// from the same synopsis. Each group's count is a restricted COUNT(E) (the
// indicator additionally matches the group value), so the per-group
// estimates inherit the COUNT estimator's exact unbiasedness.
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
// and include only groups observed in the sample.
func groupCount(e *algebra.Expr, col string, syn *Synopsis) ([]GroupEstimate, error) {
	pos := e.Schema().ColumnIndex(col)
	if pos < 0 {
		return nil, fmt.Errorf("estimator: no column %q in expression schema %s", col, e.Schema())
	}
	poly, err := algebra.Normalize(e)
	if err != nil {
		return nil, err
	}
	if err := checkSampleSizes(poly, syn); err != nil {
		return nil, err
	}
	// Terms (or, for a single term, its plan partitions) fan out across
	// workers; per-term group maps merge in term order so the counts are
	// identical for every worker count.
	eng := newEngine(nil, Options{})
	termAccs := make([]map[string]*GroupEstimate, len(poly.Terms))
	outer, inner := splitWorkers(len(poly.Terms), eng.workers)
	err = parallel.ForErr(len(poly.Terms), outer, func(i int) error {
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
	inst, err := algebra.BindInstances(t, syn)
	if err != nil {
		return err
	}
	metas, err := termRelMetas(t, syn)
	if err != nil {
		return err
	}
	if ok, err := checkTermSamples(metas); !ok {
		return err
	}
	uniform := true
	for _, m := range metas {
		if !m.rs.uniformWeights() {
			uniform = false
		}
	}
	weightOf := make([]func(int) float64, len(t.Occs))
	for i, o := range t.Occs {
		weightOf[i] = syn.rels[o.RelName].rowWeightFn()
	}
	pt, err := eng.prepare(t, inst)
	if err != nil {
		return err
	}
	coef := float64(t.Coef)
	parts := pt.Parts()
	partAccs := make([]map[string]*GroupEstimate, parts)
	parallel.For(parts, workers, func(part int) {
		local := map[string]*GroupEstimate{}
		distinct := make(map[int]struct{}, 4)
		pt.EnumeratePart(part, parts, func(rows []int) bool {
			v := inst[ref.Occ].Value(rows[ref.Occ], ref.Col)
			w := 1.0
			if uniform {
				for _, m := range metas {
					if len(m.occs) == 1 {
						w *= float64(m.rs.N) / float64(m.rs.n)
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
			} else {
				// Non-uniform designs: Horvitz–Thompson per-row weights
				// (repeated relations already rejected by checkSampleSizes).
				for i, row := range rows {
					w *= weightOf[i](row)
				}
			}
			k := relation.Tuple{v}.Key(nil)
			g, ok := local[k]
			if !ok {
				g = &GroupEstimate{Value: v}
				local[k] = g
			}
			g.Count += coef * w
			return true
		})
		partAccs[part] = local
	})
	for _, pa := range partAccs {
		mergeGroups(acc, pa)
	}
	return nil
}
