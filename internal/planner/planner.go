// Package planner implements the paper's motivating application: join-order
// optimization driven by cardinality estimates. It contains a Selinger-style
// dynamic program over left-deep join orders with the C_out cost metric
// (sum of intermediate result sizes), parameterized by a cardinality
// oracle. Three oracles are provided:
//
//   - Sampling: the paper's estimators over a synopsis — COUNT(E) for each
//     join prefix, estimated from small per-relation samples;
//   - Catalog: the System-R-era baseline — exact base cardinalities and
//     per-column distinct/min/max statistics combined with the
//     independence and uniformity assumptions (AVI);
//   - Exact: ground truth, used to score the plans the other two pick.
//
// The point the planner makes measurable (experiment A3): when join
// attributes are correlated, AVI's independence assumption picks bad
// orders, while sampling sees the correlation because it estimates each
// prefix as a whole.
package planner

import (
	"context"
	"fmt"
	"math"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/obs"
	"relest/internal/relation"
)

// Planner metric and span names (see internal/obs). Recording is passive
// and never changes the chosen plan.
const (
	sPlan           = "relest_plan"
	mOracleCalls    = "relest_planner_oracle_calls_total"
	mPlannerSubsets = "relest_planner_subsets_total"
)

// Edge is one equi-join condition between two base relations of a query.
type Edge struct {
	A, B       string // relation names
	ACol, BCol string // join columns in the respective base schemas
}

// Query is a select-join query for the optimizer: a set of base relations
// (each used once), equi-join edges between them, and optional
// per-relation filters.
type Query struct {
	Relations []string
	Schemas   map[string]*relation.Schema
	Edges     []Edge
	Filters   map[string]algebra.Predicate
	// Rec receives the optimizer's metrics and spans (oracle calls, DP
	// subsets solved); nil disables recording. Recording never changes the
	// chosen plan.
	Rec obs.Recorder
}

// validate checks structural well-formedness.
func (q *Query) validate() error {
	if len(q.Relations) == 0 {
		return fmt.Errorf("planner: query has no relations")
	}
	if len(q.Relations) > 20 {
		return fmt.Errorf("planner: %d relations exceed the DP's subset limit", len(q.Relations))
	}
	seen := map[string]bool{}
	for _, r := range q.Relations {
		if seen[r] {
			return fmt.Errorf("planner: relation %q used twice; the planner requires each relation once", r)
		}
		seen[r] = true
		if _, ok := q.Schemas[r]; !ok {
			return fmt.Errorf("planner: no schema for relation %q", r)
		}
	}
	for _, e := range q.Edges {
		if !seen[e.A] || !seen[e.B] {
			return fmt.Errorf("planner: edge %v references unknown relation", e)
		}
		if e.A == e.B {
			return fmt.Errorf("planner: self-edge on %q not supported", e.A)
		}
		if q.Schemas[e.A].ColumnIndex(e.ACol) < 0 {
			return fmt.Errorf("planner: no column %q in %q", e.ACol, e.A)
		}
		if q.Schemas[e.B].ColumnIndex(e.BCol) < 0 {
			return fmt.Errorf("planner: no column %q in %q", e.BCol, e.B)
		}
	}
	return nil
}

// CardinalityEstimator is the oracle the DP consults: the estimated number
// of rows of the (filtered, joined) expression.
type CardinalityEstimator interface {
	Cardinality(e *algebra.Expr) (float64, error)
}

// Plan is an optimized left-deep join order.
type Plan struct {
	// Order lists the base relations in join order (first two form the
	// innermost join).
	Order []string
	// Expr is the bound left-deep expression implementing Order, with
	// filters pushed onto their relations.
	Expr *algebra.Expr
	// EstCost is Σ estimated intermediate cardinalities (C_out, excluding
	// base relation scans, including the final result).
	EstCost float64
	// EstCards holds the estimated cardinality of each join prefix,
	// aligned with Order[1:].
	EstCards []float64
}

// Optimize runs the Selinger DP over left-deep orders and returns the plan
// with the lowest estimated C_out. Cross products are allowed only when a
// subset has no connecting edge (disconnected queries still get a plan).
func Optimize(q Query, oracle CardinalityEstimator) (*Plan, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	rec := obs.Or(q.Rec)
	span := rec.Span(sPlan)
	defer span.End()
	n := len(q.Relations)
	idx := map[string]int{}
	for i, r := range q.Relations {
		idx[r] = i
	}

	// exprCache[mask] is the canonical left-deep expression for the best
	// plan of that subset; built lazily alongside the DP.
	type state struct {
		cost  float64 // Σ intermediate cards for joining this subset
		card  float64 // estimated cardinality of the subset's join
		last  int     // relation joined last (for order reconstruction)
		prev  uint32  // previous mask
		expr  *algebra.Expr
		valid bool
	}
	states := make([]state, 1<<n)

	base := func(i int) (*algebra.Expr, error) {
		name := q.Relations[i]
		e := algebra.Base(name, q.Schemas[name])
		if f, ok := q.Filters[name]; ok && f != nil {
			return algebra.Select(e, f)
		}
		return e, nil
	}

	subsetOracle, bySubset := oracle.(SubsetOracle)
	cardOf := func(mask uint32, e *algebra.Expr) (float64, error) {
		rec.Add(mOracleCalls, 1)
		if bySubset {
			return subsetOracle.SubsetCardinality(mask)
		}
		return oracle.Cardinality(e)
	}

	// Singletons.
	for i := 0; i < n; i++ {
		e, err := base(i)
		if err != nil {
			return nil, err
		}
		card, err := cardOf(1<<i, e)
		if err != nil {
			return nil, err
		}
		states[1<<i] = state{cost: 0, card: math.Max(card, 0), last: i, expr: e, valid: true}
	}

	// connected reports whether relation j has an edge into the subset.
	connected := func(mask uint32, j int) bool {
		for _, e := range q.Edges {
			a, b := idx[e.A], idx[e.B]
			if a == j && mask&(1<<b) != 0 {
				return true
			}
			if b == j && mask&(1<<a) != 0 {
				return true
			}
		}
		return false
	}

	// Enumerate subsets in increasing size.
	for mask := uint32(1); mask < 1<<n; mask++ {
		if states[mask].valid || popcount(mask) < 2 {
			continue
		}
		// Prefer extensions along edges; fall back to cross products only
		// if no relation of the subset connects.
		anyConnected := false
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 && connected(mask&^(1<<j), j) {
				anyConnected = true
				break
			}
		}
		best := state{}
		for j := 0; j < n; j++ {
			if mask&(1<<j) == 0 {
				continue
			}
			prev := mask &^ (1 << j)
			if !states[prev].valid {
				continue
			}
			if anyConnected && !connected(prev, j) {
				continue
			}
			joined, err := joinInto(q, states[prev].expr, prev, j, idx)
			if err != nil {
				return nil, err
			}
			card, err := cardOf(mask, joined)
			if err != nil {
				return nil, err
			}
			card = math.Max(card, 0)
			cost := states[prev].cost + card
			if !best.valid || cost < best.cost {
				best = state{cost: cost, card: card, last: j, prev: prev, expr: joined, valid: true}
			}
		}
		if !best.valid {
			return nil, fmt.Errorf("planner: no valid extension for subset %b", mask)
		}
		states[mask] = best
		rec.Add(mPlannerSubsets, 1)
	}

	full := uint32(1<<n) - 1
	// Reconstruct the order.
	order := make([]string, 0, n)
	cards := make([]float64, 0, n-1)
	for mask := full; ; {
		st := states[mask]
		order = append(order, q.Relations[st.last])
		if popcount(mask) == 1 {
			break
		}
		cards = append(cards, st.card)
		mask = st.prev
	}
	reverseStrings(order)
	reverseFloats(cards)
	return &Plan{
		Order:    order,
		Expr:     states[full].expr,
		EstCost:  states[full].cost,
		EstCards: cards,
	}, nil
}

// joinInto builds the left-deep join of the existing prefix expression with
// relation j, using every edge between j and the prefix. Column names on
// the prefix side are resolved through the concatenation renaming rules
// (collisions were prefixed with the relation name at each earlier join).
func joinInto(q Query, prefix *algebra.Expr, prevMask uint32, j int, idx map[string]int) (*algebra.Expr, error) {
	name := q.Relations[j]
	right := algebra.Base(name, q.Schemas[name])
	var rexpr *algebra.Expr = right
	if f, ok := q.Filters[name]; ok && f != nil {
		var err error
		rexpr, err = algebra.Select(right, f)
		if err != nil {
			return nil, err
		}
	}
	var ons []algebra.On
	for _, e := range q.Edges {
		a, b := idx[e.A], idx[e.B]
		var prefRel, prefCol, rightCol string
		switch {
		case a == j && prevMask&(1<<b) != 0:
			prefRel, prefCol, rightCol = e.B, e.BCol, e.ACol
		case b == j && prevMask&(1<<a) != 0:
			prefRel, prefCol, rightCol = e.A, e.ACol, e.BCol
		default:
			continue
		}
		left := resolvePrefixColumn(prefix.Schema(), prefRel, prefCol)
		if left == "" {
			return nil, fmt.Errorf("planner: cannot resolve column %s.%s in prefix schema %s", prefRel, prefCol, prefix.Schema())
		}
		ons = append(ons, algebra.On{Left: left, Right: rightCol})
	}
	if len(ons) == 0 {
		// Cross product (disconnected query).
		return algebra.Product(prefix, rexpr, name)
	}
	return algebra.Join(prefix, rexpr, ons, nil, name)
}

// resolvePrefixColumn finds the current name of relation rel's column col
// inside a left-deep prefix schema: either the bare column name or the
// collision-renamed "rel.col".
func resolvePrefixColumn(s *relation.Schema, rel, col string) string {
	if qualified := rel + "." + col; s.ColumnIndex(qualified) >= 0 {
		return qualified
	}
	if s.ColumnIndex(col) >= 0 {
		return col
	}
	return ""
}

// TrueCost evaluates a plan's actual C_out: the exact cardinality of every
// join prefix, summed. Used to score plans chosen by approximate oracles.
func TrueCost(q Query, order []string, cat algebra.Catalog) (float64, error) {
	if len(order) != len(q.Relations) {
		return 0, fmt.Errorf("planner: order has %d relations, query has %d", len(order), len(q.Relations))
	}
	idx := map[string]int{}
	for i, r := range q.Relations {
		idx[r] = i
	}
	var prefix *algebra.Expr
	var prevMask uint32
	total := 0.0
	for i, name := range order {
		j, ok := idx[name]
		if !ok {
			return 0, fmt.Errorf("planner: unknown relation %q in order", name)
		}
		if i == 0 {
			e := algebra.Base(name, q.Schemas[name])
			if f, fok := q.Filters[name]; fok && f != nil {
				var err error
				e, err = algebra.Select(e, f)
				if err != nil {
					return 0, err
				}
			}
			prefix = e
			prevMask = 1 << j
			continue
		}
		joined, err := joinInto(q, prefix, prevMask, j, idx)
		if err != nil {
			return 0, err
		}
		card, err := algebra.Count(joined, cat)
		if err != nil {
			return 0, err
		}
		total += float64(card)
		prefix = joined
		prevMask |= 1 << j
	}
	return total, nil
}

// Oracles -----------------------------------------------------------------

// Sampling is the paper's oracle: COUNT estimates from a synopsis. Rec,
// when set, is threaded into each estimation call (per-term timing,
// samples consumed).
type Sampling struct {
	Syn *estimator.Synopsis
	Rec obs.Recorder
}

// Cardinality implements CardinalityEstimator.
func (s Sampling) Cardinality(e *algebra.Expr) (float64, error) {
	h := estimator.NewEstimator(s.Syn,
		estimator.WithOptions(estimator.Options{Variance: estimator.VarNone, Recorder: s.Rec}),
		estimator.WithTierPolicy(estimator.TierSampleOnly))
	res, err := h.Count(context.Background(), estimator.Request{Expr: e})
	if err != nil {
		return 0, err
	}
	return res.Value, nil
}

// Exact is the ground-truth oracle.
type Exact struct {
	Cat algebra.Catalog
}

// Cardinality implements CardinalityEstimator.
func (x Exact) Cardinality(e *algebra.Expr) (float64, error) {
	c, err := algebra.Count(e, x.Cat)
	return float64(c), err
}

func popcount(x uint32) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

func reverseStrings(xs []string) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

func reverseFloats(xs []float64) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}
