package main

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs: BENCHMARK.json and benchmark/out resolve as in production.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 95); math.Abs(got-4.8) > 1e-12 {
		t.Errorf("p95 = %v, want 4.8", got)
	}
	if !sort.Float64sAreSorted(sortedCopy(xs)) || xs[0] != 5 {
		t.Errorf("sortedCopy must sort a copy and leave its input alone: %v", xs)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Errorf("percentile of nothing must be NaN")
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	var g geoMean
	for _, v := range []float64{1, 10, 100} {
		g.add(v)
	}
	if got := g.value(); math.Abs(got-10) > 1e-9 {
		t.Errorf("geometric mean = %v, want 10", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed int64) ([]combo, []int) {
			s := newSeeds(seed)
			pool, err := buildPool(w, s)
			if err != nil {
				t.Fatal(err)
			}
			return pool, opSequence(w, pool, sequenceRounds, s)
		}
		poolA, seqA := gen(7)
		poolB, seqB := gen(7)
		poolC, seqC := gen(8)
		if !reflect.DeepEqual(poolA, poolB) || !reflect.DeepEqual(seqA, seqB) {
			t.Errorf("%s: the same seed generated different pools or orders", w.name)
		}
		if reflect.DeepEqual(poolA, poolC) || reflect.DeepEqual(seqA, seqC) {
			t.Errorf("%s: different seeds generated the same pool or order", w.name)
		}
		if len(poolA) != w.poolSize {
			t.Errorf("%s: pool has %d combos, want %d", w.name, len(poolA), w.poolSize)
		}
	}
	w := workloadByName("stream_rw")
	if a, b := windowOps(w, newSeeds(7), 200), windowOps(w, newSeeds(7), 200); !reflect.DeepEqual(a, b) {
		t.Errorf("the same seed generated different stream events")
	}
	if a, c := windowOps(w, newSeeds(7), 200), windowOps(w, newSeeds(8), 200); reflect.DeepEqual(a, c) {
		t.Errorf("different seeds generated the same stream events")
	}
}

// TestCompareVerdicts pins the comparison rule on hand-made runs.
func TestCompareVerdicts(t *testing.T) {
	lower := metricDecl{Name: "est_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    metricDecl
		a, b []float64
		want string
	}{
		{lower, []float64{1.00, 1.01, 0.99}, []float64{1.20, 1.21, 1.19}, "regressed"},
		{lower, []float64{1.00, 1.01, 0.99}, []float64{1.02, 1.03, 1.01}, "within-bound"},
		{lower, []float64{1.00, 1.01, 0.99}, []float64{0.80, 0.81, 0.79}, "improved"},
		{higher, []float64{100, 101, 99}, []float64{80, 81, 79}, "regressed"},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "improved"},
		{lower, []float64{1.0, 1.4, 0.7}, []float64{1.05, 1.3, 0.8}, "unresolved"},
		{lower, []float64{1.0, 1.4, 0.9}, []float64{0.5, 0.8, 0.6}, "improved"},
		{lower, []float64{1.0}, []float64{1.05}, "within-bound"},
	} {
		if got := classify(c.d, c.a, c.b); got != c.want {
			t.Errorf("classify(%s, %v, %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

func nameSet[T any](items []T, name func(T) string) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = name(it)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload for a short window at a tenth of the data
// and checks that what the program emits and what BENCHMARK.json declares
// are the same names, both ways, and that every answer verified.
func TestSmoke(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	declared := nameSet(man.Workloads, func(w workloadDecl) string { return w.Name })
	if have := nameSet(workloads, func(w *spec) string { return w.name }); !reflect.DeepEqual(have, declared) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", have, declared)
	}
	endToEnd := nameSet(man.EndToEnd, func(d metricDecl) string { return d.Name })
	perLayer := nameSet(man.PerLayer, func(d metricDecl) string { return d.Name })
	ctx := context.Background()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(ctx, w.tenth(), 1, 0.6)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.finite(); err != nil {
				t.Error(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Problems)
			}
			if got := sortedKeys(res.Metrics); !reflect.DeepEqual(got, endToEnd) {
				t.Errorf("emitted end-to-end metrics %v, BENCHMARK.json declares %v", got, endToEnd)
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		res, err := traceWorkload(ctx, workloadByName("stream_rw").tenth(), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.finite(); err != nil {
			t.Error(err)
		}
		if !res.Correct {
			t.Errorf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Problems)
		}
		if got := sortedKeys(res.Metrics); !reflect.DeepEqual(got, perLayer) {
			t.Errorf("emitted per-layer metrics %v, BENCHMARK.json declares %v", got, perLayer)
		}
		raw, err := os.ReadFile(outDir + "/trace_stream_rw.jsonl")
		if err != nil || !bytes.Contains(raw, []byte(`"name":"client.http"`)) {
			t.Errorf("trace file missing or without client.http spans: %v", err)
		}
	})
}

// TestVerifierIsLive shows the checks can fail: one flipped byte in an
// expected body, and one acknowledged stream event missing from the replay,
// each turn into a failed operation.
func TestVerifierIsLive(t *testing.T) {
	ctx := context.Background()
	w := workloadByName("light_sn").tenth()
	pr, err := prepare(ctx, w, newSeeds(1), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	c := &pr.plan.pool[0]
	status, raw, err := pr.st.estimate(ctx, c.body)
	if err != nil || status != http.StatusOK {
		t.Fatalf("estimate: %d %s (%v)", status, raw, err)
	}
	if _, _, _, err := checkAnswer(c, checkBytes, status, raw); err != nil {
		t.Errorf("the true answer was rejected: %v", err)
	}
	c.want = append([]byte(nil), c.want...)
	c.want[len(c.want)/2] ^= 1
	var log clientLog
	log.perCombo = make([]comboStats, len(pr.plan.pool))
	pr.plan.estimateOnce(ctx, pr.st, &log, 0)
	if log.failed != 1 || len(log.estLat) != 0 {
		t.Errorf("a body differing by one byte passed: failed=%d", log.failed)
	}
	if err := pr.st.discard(); err != nil {
		t.Error(err)
	}

	w = workloadByName("stream_rw").tenth()
	for _, drop := range []int{0, 1} {
		s := newSeeds(1)
		pr, err := prepare(ctx, w, s, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		var wlog clientLog
		for i := 0; i < 40; i++ {
			pr.plan.writeOnce(ctx, pr.st, &wlog)
		}
		if wlog.failed != 0 {
			t.Fatalf("stream writes failed: %v", wlog.problems)
		}
		acked := pr.plan.events[:pr.plan.acked-drop]
		problems := verifyStream(ctx, w, s, pr.st, acked)
		if drop == 0 && len(problems) != 0 {
			t.Errorf("a faithful replay was rejected: %v", problems)
		}
		if drop == 1 && len(problems) == 0 {
			t.Errorf("a replay missing one acknowledged event passed")
		}
	}
}
