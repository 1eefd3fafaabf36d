package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/obs"
	"relest/internal/query"
	"relest/internal/server"
)

// span is one timed interval of the traced pass. Spans of one operation
// share op_id; parent is the id of the span that caused this one (0 for an
// operation's root). No span is recorded inside the program under test:
// every one brackets a call the benchmark makes into a layer's public
// functions.
type span struct {
	OpID    int    `json:"op_id"`
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the spans in memory; they are written out when the pass has
// ended, so recording costs an append and two clock reads per span.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(op int, name string, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{OpID: op, ID: id, Name: name, Parent: parent, StartNS: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) { t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds() }

// timed brackets fn with a span.
func (t *tracer) timed(op int, name string, parent int, fn func()) {
	id := t.begin(op, name, parent)
	fn()
	t.end(id)
}

// selfTimes groups every span's self time by name: its duration minus the
// part of it its child spans cover.
func (t *tracer) selfTimes() map[string][]time.Duration {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.EndNS - s.StartNS
	}
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.EndNS-s.StartNS-children[s.ID]))
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one worth reporting
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // as above
		return err
	}
	return f.Close()
}

// Traced-pass bounds: it ends at whichever comes first.
const (
	tracedOps      = 2000
	tracedMaxShare = 0.4 // of --seconds
)

// counterSum adds up every series of a metric family across collectors,
// optionally restricted to series whose name contains label.
func counterSum(cols []*obs.Collector, family, label string) float64 {
	total := 0.0
	for _, col := range cols {
		snap := col.Metrics().Snapshot()
		for _, name := range sortedKeys(snap.Counters) {
			if strings.HasPrefix(name, family) && strings.Contains(name, label) {
				total += snap.Counters[name]
			}
		}
	}
	return total
}

// histogramTotals adds up count and sum of a histogram family.
func histogramTotals(cols []*obs.Collector, family string) (count, sum float64) {
	for _, col := range cols {
		snap := col.Metrics().Snapshot()
		for _, name := range sortedKeys(snap.Histograms) {
			if strings.HasPrefix(name, family) {
				count += float64(snap.Histograms[name].Count)
				sum += snap.Histograms[name].Sum
			}
		}
	}
	return count, sum
}

// counterSnapshot reads the counters the traced pass reports deltas of.
type counterSnapshot struct {
	sampleRows, sketchAnswers, shed            float64
	poolBusy, poolElapsed, reqCount, reqSecond float64
}

func snapshotCounters(cols []*obs.Collector) counterSnapshot {
	var c counterSnapshot
	c.sampleRows = counterSum(cols, "relest_samples_rows_total", "")
	c.sketchAnswers = counterSum(cols, "relest_tier_answered_total", `tier="sketch"`)
	c.shed = counterSum(cols, "relestd_shed_total", "") + counterSum(cols, "relestd_tenant_shed_total", "")
	c.poolBusy = counterSum(cols, "relest_pool_busy_seconds_total", "")
	c.poolElapsed = counterSum(cols, "relest_pool_elapsed_seconds_total", "")
	c.reqCount, c.reqSecond = histogramTotals(cols, "relestd_request_seconds")
	return c
}

// replayed is what the traced pass keeps of one in-process replay.
type replayed struct {
	st   *query.Statement
	poly algebra.Polynomial
}

// replay runs one estimate request's pipeline in process against syn, one
// span per layer call: the handler's JSON decode, the parse, the
// normalization, the library's estimate and the response encode. estimate
// is how long the library's estimation call took.
func replay(ctx context.Context, t *tracer, op, parent int, syn *estimator.Synopsis, body []byte) (out replayed, estimate time.Duration, err error) {
	var (
		req  server.EstimateRequest
		resp server.EstimateResponse
	)
	t.timed(op, "server.json_decode", parent, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return out, 0, err
	}
	t.timed(op, "query.parse", parent, func() { out.st, err = query.Parse(req.Query, synSchemas{syn}) })
	if err != nil {
		return out, 0, err
	}
	t.timed(op, "algebra.normalize", parent, func() { out.poly, err = algebra.Normalize(out.st.Expr) })
	if err != nil {
		return out, 0, err
	}
	id := t.begin(op, "estimator.estimate", parent)
	if req.Mode == "deadline" {
		resp, err = libraryDeadline(ctx, syn, req, out.st)
	} else {
		resp, err = libraryResponse(ctx, syn, req)
	}
	t.end(id)
	estimate = time.Duration(t.spans[id-1].EndNS - t.spans[id-1].StartNS)
	if err != nil {
		return out, 0, err
	}
	t.timed(op, "server.json_encode", parent, func() { _, err = encodeBody(resp) })
	return out, estimate, err
}

// libraryDeadline answers a deadline request through the library on a
// private clone, as the server does.
func libraryDeadline(ctx context.Context, syn *estimator.Synopsis, req server.EstimateRequest, st *query.Statement) (server.EstimateResponse, error) {
	resp := server.EstimateResponse{Query: req.Query, Synopsis: req.Synopsis, Mode: req.Mode}
	opts, err := libraryOptions(req)
	if err != nil {
		return resp, err
	}
	est, steps, err := estimator.DeadlineCountContext(ctx, st.Expr, syn.Clone(), estimator.DeadlineOptions{
		Budget: time.Duration(req.BudgetMS) * time.Millisecond, Estimate: opts, Seed: req.Seed,
	})
	if err != nil {
		return resp, err
	}
	resp.Estimate, resp.Rounds = wireResult(est), len(steps)
	if len(steps) > 0 {
		resp.SamplesConsumed = steps[len(steps)-1].SampleSizes
	}
	return resp, nil
}

// detail times the plan and term layers of a request's expression on their
// own, over the synopsis as drawn: a cold plan build for every term (plus
// CSE attachment), one count of every prepared term, and the plain point
// estimate without a variance.
func detail(ctx context.Context, t *tracer, op, parent int, syn *estimator.Synopsis, req server.EstimateRequest, st *query.Statement, poly algebra.Polynomial) error {
	var plans []*algebra.PreparedTerm
	var err error
	t.timed(op, "algebra.plan_build", parent, func() {
		cache := algebra.NewPlanCache()
		for i := range poly.Terms {
			var inst algebra.Instances
			if inst, err = algebra.BindInstances(&poly.Terms[i], syn); err != nil {
				return
			}
			var pt *algebra.PreparedTerm
			if pt, err = cache.Prepare(&poly.Terms[i], inst); err != nil {
				return
			}
			plans = append(plans, pt)
		}
		cache.AttachCSE(plans)
	})
	if err != nil {
		return err
	}
	t.timed(op, "algebra.term_count", parent, func() {
		for _, pt := range plans {
			pt.Count()
		}
	})
	opts, err := libraryOptions(req)
	if err != nil {
		return err
	}
	opts.Variance = estimator.VarNone
	h, _, err := libraryHandle(syn, req, opts)
	if err != nil {
		return err
	}
	t.timed(op, "estimator.point", parent, func() { _, _, err = plainEstimate(ctx, h, st) })
	return err
}

// isEvent reports whether the traced pass's i-th operation is a stream
// write: on the stream workload the single client alternates writes and
// estimates.
func isEvent(w *spec, i int) bool { return w.incremental && i%2 == 0 }

// referencePass walks the traced pass's operations without tracing and
// returns each estimate's round trip (zero for stream writes). The traced
// pass repeats the same estimates, so operation i of both passes is the same
// request: the reference latency is what the program costs when the
// benchmark does nothing between requests.
func referencePass(ctx context.Context, st *stack, p *plan, ops int, budget time.Duration) ([]time.Duration, error) {
	var plain []time.Duration
	var log clientLog
	for i, stop := 0, time.Now().Add(budget); i < ops && time.Now().Before(stop); i++ {
		if isEvent(p.w, i) {
			if p.writeOnce(ctx, st, &log); log.failed > 0 {
				return nil, fmt.Errorf("%s: untraced reference pass: %v", p.w.name, log.problems)
			}
			plain = append(plain, 0)
			continue
		}
		c := &p.pool[p.seq[i%len(p.seq)]]
		start := time.Now()
		status, raw, err := st.estimate(ctx, c.body)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("%s: untraced reference pass: status %d: %s (%v)", p.w.name, status, raw, err)
		}
		plain = append(plain, time.Since(start))
	}
	return plain, nil
}

// traceWorkload is the traced run: the workload's set-up, a single-client
// pass over its operations with spans around the real round trip and around
// an in-process replay of the same pipeline, then the layer probes. It
// reports per-layer metrics only; end-to-end figures never come from here.
func traceWorkload(ctx context.Context, w *spec, seed int64, seconds float64) (*result, error) {
	s := newSeeds(seed)
	res := &result{Workload: w.name, Seed: seed, Traced: true, Metrics: map[string]float64{}}
	pr, err := prepare(ctx, w, s, seconds, true)
	if err != nil {
		return nil, err
	}
	st, p := pr.st, pr.plan
	res.Info = pr.info
	defer func() {
		if st != nil {
			_ = st.discard() // error paths only; the success path checks it below
		}
	}()

	budget := time.Duration(seconds * tracedMaxShare * float64(time.Second))
	ops := tracedOps
	if w.quick {
		ops /= 10
	}
	plain, err := referencePass(ctx, st, p, ops, budget/2)
	if err != nil {
		return nil, err
	}
	var inc *estimator.Incremental
	if w.incremental {
		if inc, err = replayIncremental(w, s, p.events[:p.acked]); err != nil {
			return nil, err
		}
	}

	//lint:ignore detflow the program's own counters are read, not computed: each family's series are summed in sorted-name order, and the traced pass reports their deltas as measurements
	before := snapshotCounters(st.collectors())
	t := newTracer()
	// Per estimate: the traced and the reference round trip, and the
	// in-process pipeline's time.
	var tracedRTT, plainRTT, shares, overheads []float64
	terms, estimates := 0, 0
	for i, stop := 0, time.Now().Add(budget); i < min(ops, len(plain)) && time.Now().Before(stop); i++ {
		root := t.begin(i, "op", 0)
		if isEvent(w, i) {
			traceEvent(ctx, t, i, root, st, p, inc, res)
			t.end(root)
			continue
		}
		c := &p.pool[p.seq[i%len(p.seq)]]
		res.Attempted++
		var status int
		var raw []byte
		httpID := t.begin(i, "client.http", root)
		status, raw, err = st.estimate(ctx, c.body)
		t.end(httpID)
		t.timed(i, "harness.verify", root, func() {
			if err == nil {
				_, _, _, err = checkAnswer(c, w.classes[c.class].check, status, raw)
			}
		})
		if err != nil {
			res.Failed++
			res.problem("%s: %v", c.req.Query, err)
			t.end(root)
			continue
		}
		syn := pr.mirror.syn
		replayID := t.begin(i, "replay", root)
		if inc != nil {
			t.timed(i, "estimator.incr_snapshot", replayID, func() { syn, err = inc.Snapshot() })
			if err != nil {
				return nil, err
			}
		}
		rp, estimate, err := replay(ctx, t, i, replayID, syn, c.body)
		t.end(replayID)
		if err != nil {
			return nil, fmt.Errorf("%s: replaying %q: %w", w.name, c.req.Query, err)
		}
		detailID := t.begin(i, "detail", root)
		err = detail(ctx, t, i, detailID, syn, c.req, rp.st, rp.poly)
		t.end(detailID)
		if err != nil {
			return nil, fmt.Errorf("%s: detailing %q: %w", w.name, c.req.Query, err)
		}
		t.end(root)
		estimates++
		terms += rp.poly.NumTerms()
		httpSpan, replaySpan := t.spans[httpID-1], t.spans[replayID-1]
		pipeline := micros(time.Duration(replaySpan.EndNS - replaySpan.StartNS))
		tracedRTT = append(tracedRTT, micros(time.Duration(httpSpan.EndNS-httpSpan.StartNS)))
		plainRTT = append(plainRTT, micros(plain[i]))
		shares = append(shares, micros(estimate)/micros(plain[i]))
		overheads = append(overheads, micros(plain[i])-pipeline)
	}
	//lint:ignore detflow as for the reading taken before the pass
	after := snapshotCounters(st.collectors())
	series := 0
	for _, col := range st.collectors() {
		snap := col.Metrics().Snapshot()
		series += len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms)
	}
	if estimates == 0 {
		return nil, fmt.Errorf("%s: the traced pass completed no estimate: %v", w.name, res.Problems)
	}
	err = st.discard()
	st = nil
	if err != nil {
		return nil, err
	}
	if err := t.write(filepath.Join(outDir, "trace_"+w.name+".jsonl")); err != nil {
		return nil, err
	}

	self := t.selfTimes()
	m := res.Metrics
	for metric, name := range spanMetrics {
		m[metric] = median(durationsTo(self[name], micros))
	}
	m["algebra.terms_per_query"] = float64(terms) / float64(estimates)
	m["server.overhead_us"] = median(overheads)
	m["harness.compute_share"] = median(shares)
	m["harness.trace_overhead_pct"] = 100 * (median(tracedRTT) - median(plainRTT)) / median(plainRTT)
	m["estimator.sample_rows_per_est"] = (after.sampleRows - before.sampleRows) / float64(estimates)
	m["estimator.sketch_answer_share"] = (after.sketchAnswers - before.sketchAnswers) / float64(estimates)
	m["server.shed_share"] = (after.shed - before.shed) / float64(res.Attempted)
	m["server.inproc_mean_us"] = 1e6 * (after.reqSecond - before.reqSecond) / (after.reqCount - before.reqCount)
	m["parallel.pool_busy_share"] = 0
	if elapsed := after.poolElapsed - before.poolElapsed; elapsed > 0 {
		m["parallel.pool_busy_share"] = (after.poolBusy - before.poolBusy) / elapsed
	}
	m["obs.series"] = float64(series)
	res.Info["traced_ops"] = float64(len(self["op"]))
	res.Info["trace_spans"] = float64(len(t.spans))

	probes, err := runProbes(ctx, s, w.quick)
	if err != nil {
		return nil, err
	}
	for name, v := range probes {
		m[name] = v
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// spanMetrics maps each per-layer metric that is a span's median self time
// (in microseconds) to the span's name.
var spanMetrics = map[string]string{
	"query.parse_us":        "query.parse",
	"algebra.normalize_us":  "algebra.normalize",
	"algebra.plan_build_us": "algebra.plan_build",
	"algebra.term_count_us": "algebra.term_count",
	"estimator.point_us":    "estimator.point",
	"estimator.estimate_us": "estimator.estimate",
	"server.json_decode_us": "server.json_decode",
	"server.json_encode_us": "server.json_encode",
	"harness.client_us":     "harness.verify",
}

// traceEvent is the traced pass's stream-write operation: the real round
// trip, then the same event decoded and applied to the in-process mirror.
func traceEvent(ctx context.Context, t *tracer, op, root int, st *stack, p *plan, inc *estimator.Incremental, res *result) {
	res.Attempted++
	if p.acked >= len(p.events) {
		res.Failed++
		res.problem("the traced pass ran out of stream events")
		return
	}
	ev := p.events[p.acked]
	body, err := marshalRequest(streamRequest(ev))
	if err != nil {
		res.Failed++
		res.problem("%v", err)
		return
	}
	var status int
	var raw []byte
	t.timed(op, "client.http", root, func() {
		status, raw, err = st.driver.DoRaw(ctx, streamPath, "application/json", body)
	})
	if err != nil || status != http.StatusOK {
		res.Failed++
		res.problem("stream event %d: status %d: %s (%v)", p.acked, status, bytes.TrimSpace(raw), err)
		return
	}
	p.acked++
	replayID := t.begin(op, "replay", root)
	t.timed(op, "server.json_decode", replayID, func() {
		var req server.StreamRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	t.timed(op, "estimator.incr_apply", replayID, func() {
		if ev.Delete {
			err = inc.Delete(ev.Rel, ev.Tuple)
		} else {
			err = inc.Insert(ev.Rel, ev.Tuple)
		}
	})
	t.end(replayID)
	if err != nil {
		res.Failed++
		res.problem("replaying stream event %d: %v", p.acked-1, err)
	}
}
