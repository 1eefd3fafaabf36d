package estimator

import (
	"relest/internal/algebra"
	"relest/internal/obs"
	"relest/internal/parallel"
	"relest/internal/stats"
)

// The brute-force references the replication variances are checked
// against: delete-one jackknife replicates and split-sample groups built as
// sub-synopses of whole sampling units and estimated from scratch.

// jackknifeNaive is the delete-one jackknife by full re-estimation: for
// each relation R and each sampling unit u, the whole polynomial is
// estimated over the synopsis without u (withoutUnit) by a serial engine
// that compiles plans for that replicate alone. The replicates fan out across the engine's
// workers and are reduced in unit order. The caller has checked the
// jackknife's preconditions (jackknifeVariance).
func jackknifeNaive(poly algebra.Polynomial, syn *Synopsis, eng *engine, contrib termContrib) (float64, error) {
	total := 0.0
	for _, rel := range poly.RelationNames() {
		rs := syn.rels[rel]
		m := rs.m
		vals := make([]float64, m)
		err := parallel.ForErrRec(m, eng.workers, obs.Nop, func(u int) error {
			v, err := pointEstimate(poly, syn.withoutUnit(rel, u), newEngine(nil, syn, Options{Workers: 1}), contrib)
			vals[u] = v
			return err
		})
		if err != nil {
			return 0, err
		}
		var reps stats.Welford
		for _, v := range vals {
			reps.Add(v)
		}
		// (m−1)/m · Σ(θ₍ᵤ₎−θ̄)², with Σ(θ−θ̄)² = (m−1)·s² from Welford.
		sumSq := float64(reps.N()-1) * reps.Variance()
		vr := float64(m-1) / float64(m) * sumSq
		vr *= 1 - float64(m)/float64(rs.M)
		total += vr
	}
	return total, nil
}

// withoutUnit builds a synopsis in which one relation's sample has one
// sampling unit removed (a delete-one jackknife replicate).
func (s *Synopsis) withoutUnit(name string, unit int) *Synopsis {
	rs := s.rels[name]
	keep := make([]int, 0, rs.m-1)
	for i := 0; i < rs.m; i++ {
		if i != unit {
			keep = append(keep, i)
		}
	}
	return s.subSynopsisUnits(map[string][]int{name: keep})
}

// subSynopsisUnits builds a synopsis whose sample for each selected
// relation keeps only the sampling units at the given unit indices, in the
// given order. Relations not in the map keep their full samples. Whole
// units are kept or dropped, so every sub-synopsis is a valid smaller
// sample of the same design.
func (s *Synopsis) subSynopsisUnits(unitSel map[string][]int) *Synopsis {
	out := NewSynopsis()
	for name, rs := range s.rels {
		sel, ok := unitSel[name]
		if !ok {
			out.rels[name] = rs
			continue
		}
		// Each kept unit's rows are appended in bulk; a page design's kept
		// units get a fresh layout over them.
		var positions []int
		var unitStart []int32
		if rs.unitStart != nil {
			unitStart = make([]int32, 1, len(sel)+1)
		}
		for _, u := range sel {
			lo, hi := rs.unitRows(u)
			for row := lo; row < hi; row++ {
				positions = append(positions, row)
			}
			if unitStart != nil {
				unitStart = append(unitStart, int32(len(positions)))
			}
		}
		sub := &relSynopsis{
			name:      name,
			sample:    rs.sample.Subset(name, positions),
			n:         len(positions),
			N:         rs.N,
			M:         rs.M,
			m:         len(sel),
			unitStart: unitStart,
			pageSize:  rs.pageSize,
		}
		// A subset of a stratified sample is again stratified: keep each
		// stratum's population size with its surviving units.
		var newUnitOf map[int]int // original unit index → new unit index
		if rs.stratified() {
			newUnitOf = make(map[int]int, len(sel))
			for newU, u := range sel {
				newUnitOf[u] = newU
			}
		}
		for _, st := range rs.strata {
			sub2 := stratumInfo{Nh: st.Nh}
			for _, u := range st.units {
				if nu, kept := newUnitOf[u]; kept {
					sub2.units = append(sub2.units, nu)
				}
			}
			sub.strata = append(sub.strata, sub2)
		}
		out.rels[name] = sub
	}
	return out
}
