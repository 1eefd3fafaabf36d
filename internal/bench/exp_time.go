package bench

import (
	"context"
	"fmt"
	"time"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/sampling"
	"relest/internal/stats"
	"relest/internal/workload"
)

// F3Deadline measures time-constrained estimation — the CASE-DB mode: the
// achieved relative error of a join estimate as a function of the
// wall-clock budget, plus double-sampling's ability to hit a requested
// error target.
func F3Deadline(seed int64, scale Scale) *Table {
	N := scale.pick(20_000, 100_000)
	domain := scale.pick(1_000, 5_000)
	trials := scale.pick(8, 30)
	budgets := []time.Duration{
		2 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond,
		25 * time.Millisecond, 50 * time.Millisecond,
	}

	src := sampling.NewSource(seed + 80)
	gen := src.Rand(0)
	r1, r2 := workload.JoinPair(gen, workload.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: domain, N1: N, N2: N, Correlation: workload.Independent,
	})
	e := algebra.Must(algebra.Join(algebra.BaseOf(r1), algebra.BaseOf(r2),
		[]algebra.On{{Left: "a", Right: "a"}}, nil, "R2"))
	actual := workload.ExactJoinSize(r1, "a", r2, "a")

	tab := &Table{
		ID:      "F3",
		Title:   fmt.Sprintf("Deadline-bounded estimation: achieved error vs time budget (N=%d, %d trials)", N, trials),
		Columns: []string{"mode", "budget/target", "ARE", "mean final n", "mean rounds", "target met"},
		Notes: []string{
			"Deadline mode doubles the samples each round until the budget expires; the CI at the deadline is the answer (the CASE-DB contract).",
			"Double sampling sizes the sample from a pilot's variance; 'target met' is the fraction of trials whose final CI half-width satisfied the target.",
		},
	}
	for _, budget := range budgets {
		var es ErrorStats
		var finalN, rounds stats.Welford
		for tr := 0; tr < trials; tr++ {
			rng := src.Rand(21000 + tr)
			syn := estimator.NewSynopsis()
			if err := syn.AddDrawn(r1, 20, rng); err != nil {
				panic(err)
			}
			if err := syn.AddDrawn(r2, 20, rng); err != nil {
				panic(err)
			}
			est, history, err := estimator.DeadlineCountContext(context.Background(), e, syn, estimator.DeadlineOptions{
				Budget:      budget,
				InitialSize: 100,
				Estimate:    estimator.Options{Variance: estimator.VarNone},
				RNG:         rng,
			})
			if err != nil {
				panic(err)
			}
			es.Observe(est.Value, actual)
			last := history[len(history)-1]
			//lint:ignore detflow the A4 experiment measures how far the deadline estimator gets under a wall-clock budget; run-to-run variation is the quantity under study
			finalN.Add(float64(last.SampleSizes["R1"]))
			rounds.Add(float64(len(history)))
		}
		tab.AddRow("deadline", budget.String(), Pct(es.ARE()),
			Num(finalN.Mean()), fmt.Sprintf("%.1f", rounds.Mean()), "—")
	}
	for _, target := range []float64{0.05, 0.10} {
		var es ErrorStats
		var finalN stats.Welford
		met := 0
		for tr := 0; tr < trials; tr++ {
			rng := src.Rand(23000 + tr)
			syn := estimator.NewSynopsis()
			if err := syn.AddDrawn(r1, 50, rng); err != nil {
				panic(err)
			}
			if err := syn.AddDrawn(r2, 50, rng); err != nil {
				panic(err)
			}
			res, err := estimator.SequentialCountContext(context.Background(), e, syn, estimator.SequentialOptions{
				TargetRelErr: target,
				PilotSize:    scale.pick(100, 300),
				RNG:          rng,
			})
			if err != nil {
				panic(err)
			}
			es.Observe(res.Final.Value, actual)
			finalN.Add(float64(res.SampleSizes["R1"]))
			if res.TargetMet {
				met++
			}
		}
		tab.AddRow("double-sampling",
			fmt.Sprintf("±%.0f%%", 100*target),
			Pct(es.ARE()),
			Num(finalN.Mean()),
			"2.0",
			Pct(100*float64(met)/float64(trials)),
		)
	}
	// Throughput note: how fast one estimation round runs at f=5%.
	{
		rng := src.Rand(24999)
		syn := estimator.NewSynopsis()
		if err := syn.AddDrawn(r1, N/20, rng); err != nil {
			panic(err)
		}
		if err := syn.AddDrawn(r2, N/20, rng); err != nil {
			panic(err)
		}
		start := time.Now()
		reps := 0
		for time.Since(start) < 50*time.Millisecond {
			if _, err := sampleCount(e, syn, estimator.Options{Variance: estimator.VarNone}); err != nil {
				panic(err)
			}
			reps++
		}
		per := time.Since(start) / time.Duration(reps)
		tab.Notes = append(tab.Notes, fmt.Sprintf(
			"One point estimate at f=5%% (n=%d per relation) takes ~%s on this machine.",
			N/20, per.Round(10*time.Microsecond)))
	}
	return tab
}
