package bench

import (
	"fmt"
	"time"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/stats"
	"relest/internal/workload"
)

// F4Incremental drives the incremental synopsis with an insert/delete
// stream and measures (a) estimation error at checkpoints along the stream
// against the exact count over the surviving population, and (b) synopsis
// update throughput. This is the experiment behind the calibration hint:
// the paper's technique as a continuously maintained synopsis.
func F4Incremental(seed int64, scale Scale) *Table {
	ops := scale.pick(40_000, 400_000)
	capacity := scale.pick(500, 2_000)
	checkpoints := 5
	trials := scale.pick(5, 15)
	deleteFrac := 0.10
	domain := scale.pick(500, 2_000)

	src := sampling.NewSource(seed + 90)
	schema := workload.JoinSchema()
	sel := algebra.Must(algebra.Select(algebra.Base("R", schema),
		algebra.Cmp{Col: "a", Op: algebra.LT, Val: relation.Int(int64(domain / 10))}))
	join := algebra.Must(algebra.Join(algebra.Base("R", schema), algebra.Base("S", schema),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "S"))

	tab := &Table{
		ID:      "F4",
		Title:   fmt.Sprintf("Incremental synopsis over an insert/delete stream (%d ops, %.0f%% deletes, capacity %d/relation, %d trials)", ops, 100*deleteFrac, capacity, trials),
		Columns: []string{"checkpoint", "population", "selection ARE", "join ARE", "updates/sec"},
		Notes: []string{
			"Reservoir sampling handles inserts; random pairing compensates deletes. Estimates run on snapshots without touching the stream history.",
			"Errors stay flat along the stream: the synopsis neither decays nor drifts under churn.",
		},
	}

	type checkpointAgg struct {
		selErr, joinErr ErrorStats
		pop             stats.Welford
	}
	aggs := make([]checkpointAgg, checkpoints)
	var totalOps int
	var totalDur time.Duration

	for tr := 0; tr < trials; tr++ {
		rng := src.Rand(25000 + tr)
		streamR := workload.Stream(rng, workload.StreamSpec{Rel: "R", Ops: ops / 2, DeleteFrac: deleteFrac, Z: 0.8, Domain: domain})
		streamS := workload.Stream(rng, workload.StreamSpec{Rel: "S", Ops: ops / 2, DeleteFrac: deleteFrac, Z: 0.8, Domain: domain})
		inc := estimator.NewIncrementalWithOptions(estimator.IncrementalOptions{Capacity: capacity, RNG: rng})
		if err := inc.Track("R", schema); err != nil {
			panic(err)
		}
		if err := inc.Track("S", schema); err != nil {
			panic(err)
		}
		per := len(streamR) / checkpoints
		for cp := 0; cp < checkpoints; cp++ {
			lo, hi := cp*per, (cp+1)*per
			if cp == checkpoints-1 {
				hi = len(streamR)
			}
			start := time.Now()
			for i := lo; i < hi; i++ {
				apply(inc, streamR[i])
				apply(inc, streamS[i])
			}
			totalDur += time.Since(start)
			totalOps += 2 * (hi - lo)

			// Ground truth over the survivors so far.
			fullR := workload.Materialize("R", streamR[:hi])
			fullS := workload.Materialize("S", streamS[:hi])
			cat := algebra.MapCatalog{"R": fullR, "S": fullS}
			selActual, err := algebra.Count(sel, cat)
			if err != nil {
				panic(err)
			}
			joinActual := workload.ExactJoinSize(fullR, "a", fullS, "a")

			syn, err := inc.Snapshot()
			if err != nil {
				panic(err)
			}
			selEst, err := sampleCount(sel, syn, estimator.Options{Variance: estimator.VarNone})
			if err != nil {
				panic(err)
			}
			joinEst, err := sampleCount(join, syn, estimator.Options{Variance: estimator.VarNone})
			if err != nil {
				panic(err)
			}
			aggs[cp].selErr.Observe(selEst.Value, float64(selActual))
			aggs[cp].joinErr.Observe(joinEst.Value, joinActual)
			aggs[cp].pop.Add(float64(fullR.Len()))
		}
	}
	rate := float64(totalOps) / totalDur.Seconds()
	for cp := range aggs {
		tab.AddRow(
			fmt.Sprintf("%d/%d", cp+1, checkpoints),
			Num(aggs[cp].pop.Mean()),
			Pct(aggs[cp].selErr.ARE()),
			Pct(aggs[cp].joinErr.ARE()),
			fmt.Sprintf("%.2gM", rate/1e6),
		)
	}
	return tab
}

func apply(inc *estimator.Incremental, op workload.Op) {
	var err error
	if op.Delete {
		err = inc.Delete(op.Rel, op.Tuple)
	} else {
		err = inc.Insert(op.Rel, op.Tuple)
	}
	if err != nil {
		panic(err)
	}
}
