// Package tuplecopy is a deliberately-broken fixture for the tuplecopy
// analyzer.
package tuplecopy

import (
	"relest/internal/relation"
)

// materializeRelation copies a stored row out of the relation: finding.
func materializeRelation(r *relation.Relation) relation.Tuple {
	return r.Materialize(0)
}

// eachTuples iterates by materializing one Tuple per row: finding.
func eachTuples(r *relation.Relation) int {
	n := 0
	r.Each(func(i int, t relation.Tuple) bool {
		n += len(t)
		return true
	})
	return n
}

// materializeRow copies the row view out of column storage: finding.
func materializeRow(row relation.Row) relation.Tuple {
	return row.Materialize()
}

// inPlace reads values directly from column storage: no finding.
func inPlace(r *relation.Relation) int64 {
	var sum int64
	r.EachRow(func(i int, row relation.Row) bool {
		if !row.IsNull(0) {
			sum += row.Value(0).Int64()
		}
		return true
	})
	return sum
}

// freshTuple constructs a new Tuple (not a copy out of storage): no
// finding — the rule targets materialization, not Tuple construction.
func freshTuple() relation.Tuple {
	return relation.Tuple{relation.Int(1), relation.Str("a")}
}

// suppressed carries a reasoned ignore directive: no finding.
func suppressed(r *relation.Relation) relation.Tuple {
	//lint:ignore tuplecopy fixture: exercising the suppression path
	return r.Materialize(0)
}
