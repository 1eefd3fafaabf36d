package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"relest/internal/algebra"
	"relest/internal/cluster"
	"relest/internal/estimator"
	"relest/internal/obs"
	"relest/internal/query"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/server"
	"relest/internal/sketch"
	"relest/internal/workload"
)

// The layer probes time calls into each layer's public functions on fixed,
// seed-derived fixtures. They are the same for every workload: a traced run
// reports them beside the workload's own span medians, so a per-layer
// change can be read off any traced run. Every probe reports the median of
// its per-call timings.

// probeFixture is the library-side fixture: the light workload's relations
// and a 1 000-row static draw of each.
type probeFixture struct {
	rels []*relation.Relation
	syn  *estimator.Synopsis
	rng  seeds
}

var probeSpec = &spec{name: "probe", rows: 20_000, domain: 2_000, sample: 1_000}

// sized returns the workload the probes borrow their data shape from, at a
// tenth in quick mode.
func sized(w *spec, quick bool) *spec {
	if quick {
		return w.tenth()
	}
	return w
}

func newProbeFixture(s seeds, quick bool) (*probeFixture, error) {
	m, err := buildMirror(sized(probeSpec, quick), s)
	if err != nil {
		return nil, err
	}
	return &probeFixture{rels: m.rels, syn: m.syn, rng: s}, nil
}

// probeSet collects metric values; the first error wins and later probes
// become no-ops, so the suite reads as a straight list.
type probeSet struct {
	iters   int
	metrics map[string]float64
	err     error
}

func (ps *probeSet) fail(err error) {
	if ps.err == nil && err != nil {
		ps.err = err
	}
}

// timeUS times fn ps.iters times and returns the median in microseconds.
func (ps *probeSet) timeUS(fn func(i int) error) float64 {
	if ps.err != nil {
		return 0
	}
	ds := timeLoop(ps.iters, func(i int) { ps.fail(fn(i)) })
	return median(durationsTo(ds, micros))
}

// medianUS stores timeUS(fn) as the named metric.
func (ps *probeSet) medianUS(name string, fn func(i int) error) {
	ps.metrics[name] = ps.timeUS(fn)
}

// perCallNS is medianUS for calls too short to time one by one: each timed
// sample is 1 000 calls (numbered i·1000+k), and a median of microseconds
// per thousand calls reads as nanoseconds per call.
func (ps *probeSet) perCallNS(name string, fn func(i int) error) {
	ps.medianUS(name, func(i int) error {
		for k := 0; k < 1000; k++ {
			if err := fn(i*1000 + k); err != nil {
				return err
			}
		}
		return nil
	})
}

// allocsPer reports heap allocations and bytes per call of fn.
func allocsPer(n int, fn func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

func runProbes(ctx context.Context, s seeds, quick bool) (map[string]float64, error) {
	ps := &probeSet{iters: 300, metrics: map[string]float64{}}
	if quick {
		ps.iters = 30
	}
	fx, err := newProbeFixture(s, quick)
	if err != nil {
		return nil, err
	}
	probeLibrary(ctx, ps, fx)
	probeStorage(ps, fx)
	probeNode(ctx, ps, s, quick)
	probeStream(ctx, ps, s, quick)
	probeCluster(ctx, ps, s, quick)
	return ps.metrics, ps.err
}

// probeLibrary times the query, algebra and estimator layers in process.
func probeLibrary(ctx context.Context, ps *probeSet, fx *probeFixture) {
	rng := fx.rng.rand(streamProbes)
	joinText := joinSelected(selection(probeSpec, 0, 1))
	schemas := synSchemas{fx.syn}
	parse := func(text string) *query.Statement {
		st, err := query.Parse(text, schemas)
		ps.fail(err)
		return st
	}
	allocs, _ := allocsPer(ps.iters, func() { parse(joinText) })
	ps.metrics["query.parse_allocs"] = allocs
	join := parse(joinText)
	multi := parse(multiTerm(probeSpec, 3, 4))
	if ps.err != nil {
		return
	}

	// Plan cache: the same (term, instances) pair prepared again is a hit.
	poly, err := algebra.Normalize(join.Expr)
	ps.fail(err)
	if ps.err != nil {
		return
	}
	inst, err := algebra.BindInstances(&poly.Terms[0], fx.syn)
	ps.fail(err)
	cache := algebra.NewPlanCache()
	_, err = cache.Prepare(&poly.Terms[0], inst)
	ps.fail(err)
	ps.medianUS("algebra.plan_hit_us", func(int) error {
		_, err := cache.Prepare(&poly.Terms[0], inst)
		return err
	})

	// CSE: how many plans of the 7-term query attach to a shared prefix,
	// and what sharing buys on the full estimate.
	mpoly, err := algebra.Normalize(multi.Expr)
	ps.fail(err)
	if ps.err != nil {
		return
	}
	mcache := algebra.NewPlanCache()
	var plans []*algebra.PreparedTerm
	for i := range mpoly.Terms {
		minst, err := algebra.BindInstances(&mpoly.Terms[i], fx.syn)
		ps.fail(err)
		pt, err := mcache.Prepare(&mpoly.Terms[i], minst)
		ps.fail(err)
		plans = append(plans, pt)
	}
	if ps.err != nil {
		return
	}
	ps.metrics["algebra.cse_shared_subplans"] = float64(mcache.AttachCSE(plans))
	count := func(st *query.Statement, opts estimator.Options, policy estimator.TierPolicy) func(int) error {
		h := estimator.NewEstimator(fx.syn, estimator.WithOptions(opts), estimator.WithTierPolicy(policy))
		return func(int) error {
			_, err := h.Count(ctx, estimator.Request{Expr: st.Expr})
			return err
		}
	}
	sample := estimator.TierSampleOnly
	cseOn := ps.timeUS(count(multi, estimator.Options{}, sample))
	cseOff := ps.timeUS(count(multi, estimator.Options{DisableCSE: true}, sample))
	ps.metrics["algebra.cse_on_off_ratio"] = cseOff / cseOn

	// Variance engines: the full estimate minus the point estimate.
	point := ps.timeUS(count(join, estimator.Options{Variance: estimator.VarNone}, sample))
	for name, method := range map[string]estimator.VarianceMethod{
		"estimator.var_analytic_us":  estimator.VarAnalytic,
		"estimator.var_jackknife_us": estimator.VarJackknife,
		"estimator.var_split_us":     estimator.VarSplitSample,
	} {
		ps.metrics[name] = ps.timeUS(count(join, estimator.Options{Variance: method}, sample)) - point
	}

	// Tiers: the same equi-join answered from sketches and from samples.
	all := parse(joinAll)
	if ps.err != nil {
		return
	}
	ps.medianUS("estimator.tier_sketch_us", count(all, estimator.Options{}, estimator.TierSketchOnly))
	ps.medianUS("estimator.tier_sample_us", count(all, estimator.Options{}, sample))
	est := count(join, estimator.Options{}, sample)
	ps.metrics["estimator.allocs_per_est"], ps.metrics["estimator.alloc_bytes_per_est"] = allocsPer(ps.iters, func() { ps.fail(est(0)) })

	// Stratified merge of two shard partials.
	parts := []estimator.Partial{
		{Value: 1000, Variance: 400, Method: estimator.VarAnalytic, Terms: 1},
		{Value: 1200, Variance: 500, Method: estimator.VarAnalytic, Terms: 1},
	}
	ps.medianUS("estimator.merge_us", func(int) error {
		_, _, err := estimator.MergeStratified(parts, len(parts), estimator.Options{})
		return err
	})

	// Incremental maintenance: single events against full reservoirs.
	inc := estimator.NewIncrementalWithOptions(estimator.IncrementalOptions{Capacity: probeSpec.sample, Seed: fx.rng.seed(streamProbes)})
	ps.fail(inc.Track("R1", workload.JoinSchema()))
	fill := workload.Stream(rng, workload.StreamSpec{Rel: "R1", Ops: 3 * probeSpec.sample, Z: 0.5, Domain: probeSpec.domain})
	for _, op := range fill {
		ps.fail(inc.Insert(op.Rel, op.Tuple))
	}
	var inserts, deletes []time.Duration
	for _, op := range fill[:min(len(fill), 4*ps.iters)] {
		// Delete a live tuple, then put it back: the population stays put.
		start := time.Now()
		ps.fail(inc.Delete(op.Rel, op.Tuple))
		mid := time.Now()
		ps.fail(inc.Insert(op.Rel, op.Tuple))
		deletes = append(deletes, mid.Sub(start))
		inserts = append(inserts, time.Since(mid))
	}
	ps.metrics["estimator.incr_insert_us"] = median(durationsTo(inserts, micros))
	ps.metrics["estimator.incr_delete_us"] = median(durationsTo(deletes, micros))
	ps.medianUS("estimator.incr_snapshot_us", func(int) error {
		_, err := inc.Snapshot()
		return err
	})

	// Sampling: a fresh draw and a doubling extension of a private clone.
	drawRNG := fx.rng.rand(streamProbes)
	ps.medianUS("sampling.draw_us", func(int) error {
		sampling.WithoutReplacement(drawRNG, fx.rels[0].Len(), probeSpec.sample)
		return nil
	})
	n, _ := fx.syn.SampleSize("R1")
	clones := make([]*estimator.Synopsis, ps.iters)
	for i := range clones {
		clones[i] = fx.syn.Clone()
	}
	ps.medianUS("sampling.extend_us", func(i int) error { return clones[i].ExtendSample("R1", n, drawRNG) })

	// obs: one counter increment plus one span on a live collector.
	col := obs.NewCollector()
	ps.perCallNS("obs.record_ns", func(int) error {
		col.Add("relest_probe_total", 1)
		col.Span("relest_probe").End()
		return nil
	})
}

// probeStorage covers the relation and sketch layers.
func probeStorage(ps *probeSet, fx *probeFixture) {
	if ps.err != nil {
		return
	}
	r1 := fx.rels[0]
	sampleRel, _ := fx.syn.Relation("R1")
	ps.medianUS("relation.index_build_us", func(int) error {
		relation.BuildIndex(sampleRel, []int{0})
		return nil
	})
	ps.metrics["relation.bytes_per_row"] = float64(r1.Bytes()) / float64(r1.Len())
	ps.metrics["relation.synopsis_bytes"] = float64(fx.syn.Bytes())
	var csv bytes.Buffer
	ps.fail(relation.ExportCSV(r1, &csv))
	imports := timeLoop(max(3, ps.iters/30), func(int) {
		_, err := relation.ImportCSVOptions("R1", bytes.NewReader(csv.Bytes()), relation.ImportOptions{Schema: r1.Schema()})
		ps.fail(err)
	})
	ps.metrics["relation.csv_import_mb_s"] = float64(csv.Len()) / 1e6 / median(durationsTo(imports, time.Duration.Seconds))

	// The synopsis tier's sketch shape: 9 hashed groups of 512 buckets.
	cfg := sketch.Config{Groups: 9, GroupSize: 512, Hashed: true, Seed: fx.rng.seed(streamProbes)}
	a, b := sketch.New(cfg), sketch.New(cfg)
	values := workload.AttributeValues(r1, "a")
	ps.perCallNS("sketch.update_ns", func(i int) error {
		a.Update(uint64(values[i%len(values)]), 1)
		return nil
	})
	for _, v := range values {
		b.Update(uint64(v), 1)
	}
	ps.medianUS("sketch.join_est_us", func(int) error {
		_, err := sketch.JoinEstimateVar(a, b)
		return err
	})
	ps.metrics["sketch.bytes_per_col"] = float64(a.Bytes())
}

// probeServer boots a plain node with the given config and the workload's
// dataset registered.
func probeServer(ctx context.Context, cfg server.Config, w *spec, s seeds) (*stack, error) {
	st, err := bootStack(0, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := st.post(ctx, "/v1/generate", generateRequest(w, s), http.StatusCreated); err != nil {
		_ = st.close() // the registration error is the one worth reporting
		return nil, err
	}
	return st, nil
}

// probeNode covers what only a running node shows: the HTTP floor, the
// deadline loop's budget discipline, and the cost of rebuilding an evicted
// synopsis.
func probeNode(ctx context.Context, ps *probeSet, s seeds, quick bool) {
	if ps.err != nil {
		return
	}
	deadline := sized(workloadByName("deadline_sn"), quick)
	// A budget of one byte evicts every synopsis but the one just used, so
	// alternating between two synopses rebuilds one per request.
	st, err := probeServer(ctx, server.Config{SynopsisBytesBudget: 1}, deadline, s)
	if err != nil {
		ps.fail(err)
		return
	}
	defer func() { ps.fail(st.close()) }()
	for _, name := range []string{"a", "b"} {
		_, err := st.post(ctx, "/v1/synopses/"+name, synopsisRequest(deadline, s), http.StatusCreated)
		ps.fail(err)
	}
	ps.medianUS("server.http_floor_us", func(int) error {
		status, _, err := st.driver.Get(ctx, "/healthz")
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", status)
		}
		return err
	})
	var overruns []float64
	rounds0 := counterSum(st.collectors(), "relest_deadline_rounds_total", "")
	requests := 0
	for rep := 0; rep < max(1, ps.iters/100); rep++ {
		for _, budget := range probeBudgetsMS {
			req := server.EstimateRequest{Query: joinAll, Synopsis: "a", Mode: "deadline", BudgetMS: budget, Seed: int64(1 + requests)}
			start := time.Now()
			_, err := st.post(ctx, "/v1/estimate", req, http.StatusOK)
			ps.fail(err)
			overruns = append(overruns, millis(time.Since(start))-float64(budget))
			requests++
		}
	}
	ps.metrics["estimator.deadline_overrun_ms"] = median(overruns)
	ps.metrics["estimator.deadline_rounds_per_req"] = (counterSum(st.collectors(), "relest_deadline_rounds_total", "") - rounds0) / float64(requests)
	rebuilds := timeLoop(max(4, ps.iters/10), func(i int) {
		req := server.EstimateRequest{Query: joinAll, Synopsis: []string{"a", "b"}[i%2], Seed: 1}
		_, err := st.post(ctx, "/v1/estimate", req, http.StatusOK)
		ps.fail(err)
	})
	ps.metrics["server.rebuild_ms"] = median(durationsTo(rebuilds, millis))

}

// probeStream prices the stream path: an event's round trip with and
// without the WAL, the bytes each event adds to it, and a snapshot.
func probeStream(ctx context.Context, ps *probeSet, s seeds, quick bool) {
	if ps.err != nil {
		return
	}
	w := sized(workloadByName("stream_rw"), quick)
	events := windowOps(w, s, 2*ps.iters)
	rtt := func(snapDir string) (float64, *stack) {
		st, err := probeServer(ctx, server.Config{SnapshotDir: snapDir}, w, s)
		if err != nil {
			ps.fail(err)
			return 0, nil
		}
		_, err = st.post(ctx, "/v1/synopses/"+synopsisName, synopsisRequest(w, s), http.StatusCreated)
		ps.fail(err)
		ds := timeLoop(len(events), func(i int) {
			_, err := st.post(ctx, streamPath, streamRequest(events[i]), http.StatusOK)
			ps.fail(err)
		})
		return median(durationsTo(ds, micros)), st
	}
	bare, st := rtt("")
	if st != nil {
		ps.fail(st.close())
	}
	snapDir, err := makeSnapDir()
	if err != nil {
		ps.fail(err)
		return
	}
	defer func() { ps.fail(os.RemoveAll(snapDir)) }()
	logged, st := rtt(snapDir)
	if st == nil {
		return
	}
	defer func() { ps.fail(st.close()) }()
	ps.metrics["server.stream_rtt_us"] = logged
	ps.metrics["server.wal_cost_us"] = logged - bare
	if info, err := os.Stat(filepath.Join(snapDir, "wal.jsonl")); err != nil {
		ps.fail(err)
	} else {
		// The log also holds the synopsis's creation record; over hundreds
		// of events it shifts the mean by well under a byte.
		ps.metrics["server.wal_bytes_per_event"] = float64(info.Size()) / float64(len(events))
	}
	snaps := timeLoop(max(3, ps.iters/30), func(int) {
		_, err := st.post(ctx, "/v1/snapshot", nil, http.StatusOK)
		ps.fail(err)
	})
	ps.metrics["server.snapshot_ms"] = median(durationsTo(snaps, millis))
}

// shardSeedStep is the coordinator's per-shard seed stride (the 64-bit
// golden-ratio constant as an int64, DESIGN.md §15): shard i answers a
// request of seed s with seed s + i·shardSeedStep.
const shardSeedStep = -7046029254386353131

// probeCluster prices the coordinator hop: the same query and total sample
// on one node, through a one-shard coordinator, and through two shards,
// plus the rewritten request sent straight to each shard.
func probeCluster(ctx context.Context, ps *probeSet, s seeds, quick bool) {
	if ps.err != nil {
		return
	}
	w := sized(workloadByName("coord_s2"), quick)
	req := server.EstimateRequest{Query: joinSelected(w.domain / 4), Synopsis: synopsisName, Seed: 3}
	body, err := marshalRequest(req)
	ps.fail(err)
	boot := func(shards int) *stack {
		one := *w
		one.shards = shards
		st, err := setUp(ctx, &one, s, "", nil, nil)
		ps.fail(err)
		return st
	}
	single, s1, s2 := boot(0), boot(1), boot(2)
	owned := []*stack{single, s1, s2}
	targets := append([]*stack(nil), owned...)
	bodies := [][]byte{body, body, body}
	defer func() {
		for _, st := range owned {
			if st != nil {
				ps.fail(st.close())
			}
		}
	}()
	if ps.err != nil {
		return
	}
	for i, shard := range s2.harness.Shards {
		// What the coordinator's fan-out sends shard i: the derived seed and
		// 90 % of its 30 s default budget.
		sreq := req
		sreq.Seed += int64(i) * shardSeedStep
		sreq.TimeoutMS = 27_000
		sbody, err := marshalRequest(sreq)
		ps.fail(err)
		direct := &stack{node: shard, driver: newDriver("http://" + shard.Addr())}
		targets, bodies = append(targets, direct), append(bodies, sbody)
	}
	// One request to every target per round, so that a noisy moment on the
	// host lands on all of them and the ratios stay honest.
	cols := s2.collectors()[:1]
	fanout0 := counterSum(cols, "relestd_shard_fanout_total", "")
	rtts := make([][]time.Duration, len(targets))
	for round := 0; round < ps.iters && ps.err == nil; round++ {
		for k, st := range targets {
			start := time.Now()
			status, raw, err := st.estimate(ctx, bodies[k])
			rtts[k] = append(rtts[k], time.Since(start))
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("cluster probe target %d: status %d: %s", k, status, raw)
			}
			ps.fail(err)
		}
	}
	if ps.err != nil {
		return
	}
	med := func(k int) float64 { return median(durationsTo(rtts[k], micros)) }
	node, coord, slowest := med(0), med(2), max(med(3), med(4))
	ps.metrics["cluster.hop_ratio_s1"] = med(1) / node
	ps.metrics["cluster.hop_ratio_s2"] = coord / node
	ps.metrics["cluster.coord_rtt_us"] = coord
	ps.metrics["cluster.shard_rtt_us"] = slowest
	ps.metrics["cluster.hop_us"] = coord - slowest
	requests := float64(ps.iters)
	ps.metrics["cluster.fanout_per_req"] = (counterSum(cols, "relestd_shard_fanout_total", "") - fanout0) / requests
	ps.metrics["cluster.deadline_miss_share"] = counterSum(cols, "relestd_shard_deadline_miss_total", "") / (requests * float64(w.shards))
	ps.metrics["cluster.partial_share"] = counterSum(cols, "relestd_partial_responses_total", "") / requests

	spec := cluster.ShardSpec{Shards: w.shards}
	ps.perCallNS("cluster.route_ns", func(i int) error {
		_, err := spec.Route(relation.Int(int64(i)))
		return err
	})
}
