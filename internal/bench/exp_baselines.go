package bench

import (
	"fmt"

	"relest/internal/estimator"
	"relest/internal/histogram"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/sketch"
	"relest/internal/workload"
)

// T6Baselines compares the sampling estimator against the synopses that
// historically bracketed it — the System-R-era histograms before it and
// the AMS sketches after it — at equal per-relation synopsis budgets, over
// the join workloads whose regimes decide the winners.
//
// Space accounting (per relation, in stored scalars): sampling keeps B
// sampled join-attribute values (plus two integers of metadata); the sketch
// keeps B atomic counters; histograms keep B/4 buckets of 4 scalars each.
//
// Expected shape (this is the "why sketches superseded it" table): sampling
// wins on independent and clustered workloads at moderate budgets, sketches
// win on strongly positively correlated / self-join-like data where
// sampling misses the matching heavy pairs, histograms sit in between and
// degrade with skew through the containment assumption.
func T6Baselines(seed int64, scale Scale) *Table {
	N := scale.pick(10_000, 50_000)
	domain := scale.pick(1_000, 10_000)
	trials := scale.pick(10, 50)
	budgets := []int{100, 500, 1000}

	src := sampling.NewSource(seed + 60)
	type wl struct {
		name   string
		r1, r2 *relation.Relation
	}
	var workloads []wl
	{
		gen := src.Rand(1)
		a, b := workload.JoinPair(gen, workload.JoinPairSpec{Z1: 0.5, Z2: 1.0, Domain: domain, N1: N, N2: N, Correlation: workload.Independent})
		workloads = append(workloads, wl{"zipf-independent", a, b})
		a, b = workload.JoinPair(gen, workload.JoinPairSpec{Z1: 0.5, Z2: 1.0, Domain: domain, N1: N, N2: N, Correlation: workload.Positive})
		workloads = append(workloads, wl{"zipf-positive", a, b})
		a, b = workload.ClusteredPair(gen, workload.ClusterSpec{Regions: 10, Domain: 1024, N1: N, N2: N})
		workloads = append(workloads, wl{"clustered-10", a, b})
		a, b = workload.ClusteredPair(gen, workload.ClusterSpec{Regions: 50, Domain: 1024, N1: N, N2: N})
		workloads = append(workloads, wl{"clustered-50", a, b})
	}

	tab := &Table{
		ID:      "T6",
		Title:   fmt.Sprintf("Equal-space join estimation: sampling vs AMS sketch vs histograms (N=%d, %d trials)", N, trials),
		Columns: []string{"workload", "budget", "sampling ARE", "sketch ARE", "equi-width ARE", "equi-depth ARE"},
		Notes: []string{
			"Budget = stored scalars per relation. Sampling: B attribute values; sketch: B atomic counters; histograms: B/4 buckets.",
			"Histograms are built on the full data (as a system catalog would); sampling and sketches see only the budgeted synopsis.",
		},
	}
	attrSchema := relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt})
	for _, w := range workloads {
		actual := workload.ExactJoinSize(w.r1, "a", w.r2, "a")
		vals1 := workload.AttributeValues(w.r1, "a")
		vals2 := workload.AttributeValues(w.r2, "a")
		// Frequency maps let the sketches ingest one weighted update per
		// distinct value instead of one per tuple.
		freq1 := map[int64]int64{}
		for _, v := range vals1 {
			freq1[v]++
		}
		freq2 := map[int64]int64{}
		for _, v := range vals2 {
			freq2[v]++
		}
		// Single-column projections of the relations for the sampling
		// estimator (the join needs only the join attribute, so a fair
		// budget buys B sampled values).
		col1 := relation.New("R1", attrSchema)
		for _, v := range vals1 {
			col1.MustAppend(relation.Tuple{relation.Int(v)})
		}
		col2 := relation.New("R2", attrSchema)
		for _, v := range vals2 {
			col2.MustAppend(relation.Tuple{relation.Int(v)})
		}
		e := algebraJoin(col1, col2)
		for _, budget := range budgets {
			var sampARE, skARE, ewARE, edARE ErrorStats
			for tr := 0; tr < trials; tr++ {
				rng := src.Rand(17000 + tr)
				// Sampling.
				syn := estimator.NewSynopsis()
				if err := syn.AddDrawn(col1, budget, rng); err != nil {
					panic(err)
				}
				if err := syn.AddDrawn(col2, budget, rng); err != nil {
					panic(err)
				}
				est, err := sampleCount(e, syn, estimator.Options{Variance: estimator.VarNone})
				if err != nil {
					panic(err)
				}
				sampARE.Observe(est.Value, actual)
				// Sketch (per-trial seed: a fresh hash family).
				cfg := sketch.Config{Groups: 5, GroupSize: budget / 5, Seed: src.StreamSeed(18000 + tr)}
				s1, s2 := sketch.New(cfg), sketch.New(cfg)
				for v, c := range freq1 {
					s1.Update(uint64(v), c)
				}
				for v, c := range freq2 {
					s2.Update(uint64(v), c)
				}
				got, err := sketch.JoinEstimate(s1, s2)
				if err != nil {
					panic(err)
				}
				skARE.Observe(got, actual)
			}
			// Histograms are deterministic: one observation each.
			buckets := budget / 4
			h1, err := histogram.Build(histogram.EquiWidth, vals1, buckets)
			if err != nil {
				panic(err)
			}
			h2, err := histogram.Build(histogram.EquiWidth, vals2, buckets)
			if err != nil {
				panic(err)
			}
			ewARE.Observe(histogram.EstimateJoin(h1, h2), actual)
			d1, err := histogram.Build(histogram.EquiDepth, vals1, buckets)
			if err != nil {
				panic(err)
			}
			d2, err := histogram.Build(histogram.EquiDepth, vals2, buckets)
			if err != nil {
				panic(err)
			}
			edARE.Observe(histogram.EstimateJoin(d1, d2), actual)

			tab.AddRow(
				w.name,
				fmt.Sprintf("%d", budget),
				Pct(sampARE.ARE()),
				Pct(skARE.ARE()),
				Pct(ewARE.ARE()),
				Pct(edARE.ARE()),
			)
		}
	}
	return tab
}
