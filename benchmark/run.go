package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"syscall"
	"time"

	"relest/internal/cluster"
	"relest/internal/server"
	"relest/internal/workload"
)

// Run shape. The measured window's length is the --seconds flag; warm-up
// and the number of timed set-ups are fixed so that two runs differ only in
// what they measure.
const (
	// warmup is the untimed lead-in before the window (shorter only when
	// the window itself is under four seconds, as in the smoke tests).
	warmup         = time.Second
	setupRuns      = 3
	sequenceRounds = 8
	// maxProblems caps the failure messages kept per run; the counts are
	// always complete.
	maxProblems = 8
	// coverageLo/Hi is the repo's calibration band for a nominal 95 % CI
	// (internal/estimator, internal/server and internal/cluster gate on the
	// same numbers), applied when at least coverageMin answers were seen.
	// Tenth-size smoke runs report coverage without gating on it: their
	// samples are too small for a normal-theory interval to hold its rate.
	coverageLo, coverageHi = 88.0, 99.0
	coverageMin            = 100
	// deadlineCoverageLo is the floor for the deadline answers' coverage.
	// The band above is for independent draws; a window's deadline answers
	// share one 100-row base sample and nine query texts, and over ten
	// seeds of unchanged code they covered 86.8 % to 98 %. A floor of 80 %
	// still fails a CI whose standard error is a third too small.
	deadlineCoverageLo = 80.0
	// calibrationProbes is the number of freshly drawn synopses the
	// coordinator's CI coverage is checked over after the window.
	calibrationProbes = 200
)

// result is one run of one workload: the contract's output plus what a
// human reading the run wants beside it.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Info holds figures that are reported but not gated: sample counts,
	// the harness's own preparation times, per-class latencies.
	Info     map[string]float64 `json:"info,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

func (r *result) problem(format string, args ...any) {
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// absorb adds one client log's counts and failure messages to the run.
func (r *result) absorb(l *clientLog) {
	r.Attempted += l.attempted
	r.Failed += l.failed
	for _, msg := range l.problems {
		r.problem("%s", msg)
	}
}

// finite rejects a run whose metrics include a value that is not a number:
// a metric the run could not measure is a broken run, not a zero.
func (r *result) finite() error {
	for _, name := range sortedKeys(r.Metrics) {
		if v := r.Metrics[name]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, name, v)
		}
	}
	return nil
}

// decodeEstimate parses an estimate body; the coordinator's shape is the
// node's plus the degradation fields, so it decodes both.
func decodeEstimate(raw []byte) (cluster.EstimateResponse, error) {
	var resp cluster.EstimateResponse
	err := json.Unmarshal(raw, &resp)
	return resp, err
}

// relHalfWidth is the accuracy figure of one answer: the CI half-width as
// a share of the estimate. ok is false where it is undefined (no CI, as
// for avg, or a zero estimate).
func relHalfWidth(resp cluster.EstimateResponse) (float64, bool) {
	e := resp.Estimate
	if e.VarianceMethod == "none" || e.Value == 0 || e.Hi <= e.Lo { //lint:ignore floateq division guard: a relative width is undefined at an exactly-zero estimate
		return 0, false
	}
	return (e.Hi - e.Lo) / (2 * math.Abs(e.Value)), true
}

// wellFormed is the structural check every answer must pass: a full (not
// degraded) answer whose interval contains its point estimate.
func wellFormed(resp cluster.EstimateResponse) error {
	e := resp.Estimate
	if resp.Partial {
		return fmt.Errorf("degraded answer (partial: true, shards missed %v)", resp.ShardsMissed)
	}
	if e.VarianceMethod != "none" && !(e.Lo <= e.Value && e.Value <= e.Hi) {
		return fmt.Errorf("point estimate %v outside its interval [%v, %v]", e.Value, e.Lo, e.Hi)
	}
	return nil
}

// comboStats accumulates one client's answers to one combo.
type comboStats struct {
	n       int
	width   geoMean
	covered int // deadline answers whose CI covered the truth
}

// clientLog is what one closed-loop client records. Each client writes only
// its own log, so the loop needs no locks.
type clientLog struct {
	// Latencies of verified-correct operations only. Deadline-mode
	// estimates are kept apart: their latency is the budget they asked for
	// plus the round in flight when it ran out, whatever the host's speed,
	// so they are not put at reference speed like the others.
	estLat    []time.Duration
	budgetLat []time.Duration
	refLat    []time.Duration // reference-kernel runs (see hostspeed.go)
	writeLat  []time.Duration // acknowledged stream events
	attempted int
	failed    int
	problems  []string
	perCombo  []comboStats
}

func (l *clientLog) fail(format string, args ...any) {
	l.failed++
	if len(l.problems) < maxProblems {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// plan is everything a run's clients execute: the pool, the order they
// walk it in and, on the stream workload, the writer's event sequence.
type plan struct {
	w    *spec
	pool []combo
	seq  []int
	// events is the writer's sequence; acked counts the prefix the server
	// has acknowledged. Only the writer client touches either.
	events []workload.Op
	acked  int
}

// newLog allocates a client log sized for about capacity estimates.
func (p *plan) newLog(capacity int) clientLog {
	return clientLog{
		perCombo:  make([]comboStats, len(p.pool)),
		estLat:    make([]time.Duration, 0, capacity),
		budgetLat: make([]time.Duration, 0, capacity),
		writeLat:  make([]time.Duration, 0, capacity),
		refLat:    make([]time.Duration, 0, capacity/10),
	}
}

// newLogs allocates one log per client.
func (p *plan) newLogs(capacity int) []clientLog {
	logs := make([]clientLog, clients)
	for i := range logs {
		logs[i] = p.newLog(capacity)
	}
	return logs
}

// expect pins the combo's expected body, and with it the one CI width every
// answer to it will have.
func (c *combo) expect(body []byte) error {
	resp, err := decodeEstimate(body)
	if err != nil {
		return fmt.Errorf("expected answer to %q: %w", c.req.Query, err)
	}
	if err := wellFormed(resp); err != nil {
		return fmt.Errorf("expected answer to %q: %w", c.req.Query, err)
	}
	c.want = body
	c.width, _ = relHalfWidth(resp)
	return nil
}

// checkAnswer verifies one answer and returns its relative half-width
// where the answer has one.
func checkAnswer(c *combo, kind checkKind, status int, raw []byte) (width float64, hasWidth bool, covered bool, err error) {
	if status != http.StatusOK {
		return 0, false, false, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(raw))
	}
	if kind == checkBytes || kind == checkRepeat {
		if !bytes.Equal(raw, c.want) {
			return 0, false, false, fmt.Errorf("body differs from the expected answer:\n  got:  %s  want: %s", raw, c.want)
		}
	}
	resp, err := decodeEstimate(raw)
	if err != nil {
		return 0, false, false, fmt.Errorf("undecodable body: %v", err)
	}
	if err := wellFormed(resp); err != nil {
		return 0, false, false, err
	}
	if kind == checkDeadline {
		if resp.Rounds < 1 {
			return 0, false, false, fmt.Errorf("deadline answer reports %d rounds", resp.Rounds)
		}
		covered = resp.Estimate.Lo <= c.truth && c.truth <= resp.Estimate.Hi
	}
	width, hasWidth = relHalfWidth(resp)
	return width, hasWidth, covered, nil
}

// estimateOnce sends pool combo ci and logs the outcome.
func (p *plan) estimateOnce(ctx context.Context, st *stack, log *clientLog, ci int) {
	c := &p.pool[ci]
	kind := p.w.classes[c.class].check
	log.attempted++
	start := time.Now()
	status, raw, err := st.estimate(ctx, c.body)
	lat := time.Since(start)
	if err != nil {
		log.fail("%s: transport: %v", c.req.Query, err)
		return
	}
	width, hasWidth, covered, err := checkAnswer(c, kind, status, raw)
	if err != nil {
		log.fail("%s: %v", c.req.Query, err)
		return
	}
	if kind == checkDeadline {
		log.budgetLat = append(log.budgetLat, lat)
	} else {
		log.estLat = append(log.estLat, lat)
	}
	cs := &log.perCombo[ci]
	cs.n++
	if hasWidth {
		cs.width.add(width)
	}
	if covered {
		cs.covered++
	}
}

// writeOnce applies the writer's next event; it reports false when the
// generated stream is used up.
func (p *plan) writeOnce(ctx context.Context, st *stack, log *clientLog) bool {
	log.attempted++
	if p.acked >= len(p.events) {
		log.fail("the writer ran out of events; the window outlasted the generated stream")
		return false
	}
	start := time.Now()
	status, raw, err := st.driver.Do(ctx, streamPath, streamRequest(p.events[p.acked]))
	lat := time.Since(start)
	if err != nil || status != http.StatusOK {
		log.fail("stream event %d: status %d: %s (%v)", p.acked, status, bytes.TrimSpace(raw), err)
		return true
	}
	p.acked++
	log.writeLat = append(log.writeLat, lat)
	return true
}

// drive runs the closed-loop clients for d: each sends its next request
// only when the previous answer has been read and verified. Client c walks
// sequence positions c, c+clients, …; on the stream workload client 0 is
// the only writer. first is the sequence position the phase starts from,
// so warm-up and window continue one walk. It returns the phase's actual
// length.
func (p *plan) drive(ctx context.Context, st *stack, d time.Duration, first int, logs []clientLog) time.Duration {
	start := time.Now()
	end := start.Add(d)
	workload.Fanout(clients, clients, func(c int) {
		log := &logs[c]
		ref, err := newRefKernel(st.snapDir)
		if err != nil {
			log.fail("reference kernel: %v", err)
			return
		}
		defer func() {
			if err := ref.close(); err != nil {
				log.fail("reference kernel: %v", err)
			}
		}()
		for pos := first + c; time.Now().Before(end); pos += clients {
			ref.sample(log)
			if p.w.incremental && c == 0 {
				if !p.writeOnce(ctx, st, log) {
					return
				}
			} else {
				p.estimateOnce(ctx, st, log, p.seq[pos%len(p.seq)])
			}
		}
	})
	return time.Since(start)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// heapLiveMiB is the live heap after forced collections: two, because
// sync.Pool contents survive the first in the pools' victim caches.
func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// prepared is a workload ready to be driven: the stack is up and every
// combo knows its expected answer.
type prepared struct {
	st     *stack
	plan   *plan
	mirror *mirror
	setup  []time.Duration
	// logs are the window's client logs, allocated here so that they exist
	// before heapBase is read.
	logs []clientLog
	// heapBase is the live heap just before the kept set-up: everything the
	// benchmark itself holds (pool, expected bodies, event sequence, latency
	// logs) is already allocated by then, so the growth from here to the end
	// of the window is what the stack under test keeps resident.
	heapBase float64
	info     map[string]float64
}

// latencyCap pre-sizes each client's latency logs (entries per second of
// window), so that they do not grow during the window.
const latencyCap = 12_000

// prepare builds the benchmark's own data (pool, order, events, mirror and
// expectations), then sets the workload up setupRuns times and keeps the
// last stack.
func prepare(ctx context.Context, w *spec, s seeds, seconds float64, traced bool) (*prepared, error) {
	pool, err := buildPool(w, s)
	if err != nil {
		return nil, err
	}
	pr := &prepared{info: map[string]float64{}}
	pr.plan = &plan{w: w, pool: pool, seq: opSequence(w, pool, sequenceRounds, s)}
	if w.incremental {
		// 5 events per millisecond is beyond what one closed-loop writer
		// can have acknowledged through an fsynced WAL.
		perRel := int((seconds+warmup.Seconds()+1)*5_000) / len(streamRels)
		pr.plan.events = append(preloadOps(w, s), windowOps(w, s, perRel)...)
		pr.plan.acked = len(streamRels) * w.preload
	}
	pr.logs = pr.plan.newLogs(int(seconds * latencyCap))

	start := time.Now()
	if pr.mirror, err = buildMirror(w, s); err != nil {
		return nil, err
	}
	truths := map[string]float64{}
	var truthTime time.Duration
	for i := range pool {
		c := &pool[i]
		switch w.classes[c.class].check {
		case checkBytes:
			body, err := libraryBody(ctx, pr.mirror.syn, c.req)
			if err != nil {
				return nil, err
			}
			if err := c.expect(body); err != nil {
				return nil, err
			}
		case checkDeadline:
			truth, ok := truths[c.req.Query]
			if !ok {
				t0 := time.Now()
				if truth, err = exactCount(pr.mirror, c.req.Query); err != nil {
					return nil, err
				}
				truthTime += time.Since(t0)
				truths[c.req.Query] = truth
			}
			c.truth = truth
		}
	}
	pr.info["expect_s"] = (time.Since(start) - truthTime).Seconds()
	pr.info["truth_s"] = truthTime.Seconds()
	if !traced {
		pr.mirror = nil // the traced pass replays against it; an untraced window should not hold it
	}

	runs := setupRuns
	if w.quick || traced { // setup_s is an untraced metric
		runs = 1
	}
	for i := 0; i < runs; i++ {
		if pr.st != nil {
			if err := pr.st.discard(); err != nil {
				return nil, err
			}
			pr.st = nil
		}
		snapDir := ""
		if w.persist {
			if snapDir, err = makeSnapDir(); err != nil {
				return nil, err
			}
		}
		if i == runs-1 {
			pr.heapBase = heapLiveMiB()
		}
		start := time.Now()
		st, err := setUp(ctx, w, s, snapDir, pool, pr.plan.events[:pr.plan.acked])
		if err != nil {
			return nil, err
		}
		pr.setup = append(pr.setup, time.Since(start))
		pr.st = st
	}
	for i := range pool {
		c := &pool[i]
		if w.classes[c.class].check != checkRepeat {
			continue
		}
		status, raw, err := pr.st.estimate(ctx, c.body)
		if err != nil || status != http.StatusOK {
			_ = pr.st.discard() // the first error is the one worth reporting
			return nil, fmt.Errorf("%s: first answer to %q: status %d: %s (%v)", w.name, c.req.Query, status, raw, err)
		}
		if err := c.expect(raw); err != nil {
			_ = pr.st.discard() // as above
			return nil, err
		}
	}
	return pr, nil
}

// runWorkload is one untraced run: set-up, warm-up, the measured window and
// the checks that need the window's end state. End-to-end metrics come
// from here and nowhere else.
func runWorkload(ctx context.Context, w *spec, seed int64, seconds float64) (*result, error) {
	s := newSeeds(seed)
	res := &result{Workload: w.name, Seed: seed, Metrics: map[string]float64{}}
	pr, err := prepare(ctx, w, s, seconds, false)
	if err != nil {
		return nil, err
	}
	st, p := pr.st, pr.plan
	res.Info = pr.info
	res.Metrics["setup_s"] = median(durationsTo(pr.setup, time.Duration.Seconds))

	window := time.Duration(seconds * float64(time.Second))
	p.drive(ctx, st, min(warmup, window/4), 0, p.newLogs(0))
	runtime.GC()
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	logs := pr.logs
	elapsed := p.drive(ctx, st, window, len(p.pool), logs)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	res.Metrics["heap_live_mb"] = heapLiveMiB() - pr.heapBase

	var estLat, budgetLat, writeLat, refLat []time.Duration
	merged := make([]comboStats, len(p.pool))
	for i := range logs {
		l := &logs[i]
		res.absorb(l)
		estLat = append(estLat, l.estLat...)
		budgetLat = append(budgetLat, l.budgetLat...)
		writeLat = append(writeLat, l.writeLat...)
		refLat = append(refLat, l.refLat...)
		for i, cs := range l.perCombo {
			merged[i].n += cs.n
			merged[i].covered += cs.covered
			//lint:ignore detflow the widths come from response bodies; only the log that carries them also carries latencies. The clients' logs merge in client order
			merged[i].width.sumLog += cs.width.sumLog
			merged[i].width.n += cs.width.n
		}
	}
	correctOps := float64(len(estLat) + len(budgetLat) + len(writeLat))
	if len(estLat)+len(budgetLat) == 0 {
		return nil, fmt.Errorf("%s: no estimate succeeded in the window: %v", w.name, res.Problems)
	}
	// Times are reported at reference speed (see hostspeed.go), the raw
	// readings beside them. The window and its CPU time shrink by the same
	// share as the operations' total time did; deadline-mode requests keep
	// the time they asked for.
	slow := hostSlowdown(refLat, st.snapDir != "")
	rawMS, budgetMS := durationsTo(estLat, millis), durationsTo(budgetLat, millis)
	//lint:ignore detflow latencies are this program's measurements: their totals, summed in log order, set how far the window shrinks and are reported as measurements
	computing, budgeted := sum(rawMS)+sum(durationsTo(writeLat, millis)), sum(budgetMS)
	shrink := (computing/slow + budgeted) / (computing + budgeted)
	estMS := make([]float64, 0, len(rawMS)+len(budgetMS))
	for _, ms := range rawMS {
		estMS = append(estMS, ms/slow)
	}
	estMS, rawMS = append(estMS, budgetMS...), append(rawMS, budgetMS...)
	cpuMS := millis(cpu1 - cpu0)
	res.Metrics["ops_per_s"] = correctOps / (elapsed.Seconds() * shrink)
	res.Metrics["est_p50_ms"] = percentile(estMS, 50)
	res.Metrics["est_p95_ms"] = percentile(estMS, 95)
	res.Metrics["cpu_ms_per_op"] = cpuMS * shrink / correctOps
	//lint:ignore detflow a deadline answer's width depends on the wall clock by contract; scaling it by the measured slowdown is the reported measurement
	res.Metrics["rel_hw_gm"] = windowWidth(p, merged, slow)
	res.Info["host_slowdown"] = slow
	res.Info["raw_ops_per_s"] = correctOps / elapsed.Seconds()
	res.Info["raw_est_p50_ms"] = percentile(rawMS, 50)
	res.Info["raw_est_p95_ms"] = percentile(rawMS, 95)
	res.Info["raw_cpu_ms_per_op"] = cpuMS / correctOps
	//lint:ignore detflow as for rel_hw_gm
	res.Info["raw_rel_hw_gm"] = windowWidth(p, merged, 1)
	res.Info["window_s"] = elapsed.Seconds()
	res.Info["est_samples"] = float64(len(estMS))
	if len(writeLat) > 0 {
		res.Info["write_samples"] = float64(len(writeLat))
		res.Info["write_p50_ms"] = percentile(durationsTo(writeLat, millis), 50)
	}

	// Post-window checks. Each is an operation of the run: it is counted in
	// attempted, and in failed when it does not hold.
	after := p.newLog(0)
	for ci, c := range p.pool {
		if w.classes[c.class].once {
			p.estimateOnce(ctx, st, &after, ci)
		}
	}
	res.absorb(&after)
	switch {
	case w.incremental:
		res.Attempted += streamChecks
		problems := verifyStream(ctx, w, s, st, p.events[:p.acked])
		st = nil
		res.Failed += len(problems)
		for _, msg := range problems {
			res.problem("%s", msg)
		}
	case w.shards > 0:
		res.Attempted++
		cov, err := coordinatorCoverage(ctx, w, s, st)
		res.Info["coverage_pct"] = cov
		if err != nil {
			res.Failed++
			res.problem("%v", err)
		}
	default:
		answers, covered := 0, 0
		for i, cs := range merged {
			if w.classes[p.pool[i].class].check == checkDeadline {
				answers += cs.n
				covered += cs.covered
			}
		}
		if answers >= coverageMin {
			res.Attempted++
			cov := 100 * float64(covered) / float64(answers)
			res.Info["coverage_pct"] = cov
			if !w.quick && cov < deadlineCoverageLo {
				res.Failed++
				res.problem("deadline CIs covered the exact count in %.1f%% of %d answers, below %g%%", cov, answers, deadlineCoverageLo)
			}
		}
	}
	if st != nil {
		if err := st.discard(); err != nil {
			return nil, err
		}
	}
	res.Info["fail_share"] = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0
	return res, nil
}

// windowWidth is rel_hw_gm: the geometric mean, over the pool's combos that
// were answered, of each combo's relative CI half-width. A seed-pinned
// combo has one width (every answer is the same bytes), taken from its
// expected body so the figure is bit-equal between runs however many times
// each combo happened to run; a deadline or live combo contributes the
// geometric mean of its answers' widths. A deadline answer's width is put at
// reference speed like the times are: the sample a budget affords grows
// with the host's speed and a CI narrows with the root of the sample, so the
// width is divided by the root of the host's slowdown (ten seeds of
// unchanged code with slowdowns from 1.14 to 1.56: widths from 0.108 to
// 0.124 as measured, from 0.098 to 0.101 so scaled).
func windowWidth(p *plan, merged []comboStats, slowdown float64) float64 {
	var gm geoMean
	for i, cs := range merged {
		c := &p.pool[i]
		if cs.n == 0 {
			continue
		}
		if c.want != nil {
			if c.width > 0 {
				gm.add(c.width)
			}
			continue
		}
		if cs.width.n == 0 {
			continue
		}
		width := cs.width.value()
		if p.w.classes[c.class].check == checkDeadline {
			width /= math.Sqrt(slowdown)
		}
		gm.add(width)
	}
	return gm.value()
}

// coordinatorCoverage holds the cluster to the repo's calibration band:
// over calibrationProbes freshly seeded synopses, the stratified CI of the
// key join must cover the exact join size at the nominal rate.
func coordinatorCoverage(ctx context.Context, w *spec, s seeds, st *stack) (float64, error) {
	rels, err := server.GenerateDataset(generateRequest(w, s))
	if err != nil {
		return 0, err
	}
	truth := workload.ExactJoinSize(rels[0], "a", rels[1], "a")
	probes := calibrationProbes
	if w.quick {
		probes /= 4
	}
	base := s.seed(streamProbes)
	covered := 0
	for i := 0; i < probes; i++ {
		name := fmt.Sprintf("cal-%d", i)
		spec := synopsisRequest(w, s)
		spec.Seed = base + int64(i)
		if _, err := st.post(ctx, "/v1/synopses/"+name, spec, http.StatusCreated); err != nil {
			return 0, err
		}
		probe := server.EstimateRequest{Query: joinAll, Synopsis: name, Seed: 3, Variance: "analytic"}
		raw, err := st.post(ctx, "/v1/estimate", probe, http.StatusOK)
		if err != nil {
			return 0, err
		}
		resp, err := decodeEstimate(raw)
		if err != nil {
			return 0, err
		}
		if err := wellFormed(resp); err != nil {
			return 0, fmt.Errorf("calibration probe %d: %w", i, err)
		}
		if resp.Estimate.Lo <= truth && truth <= resp.Estimate.Hi {
			covered++
		}
	}
	cov := 100 * float64(covered) / float64(probes)
	if !w.quick && (cov < coverageLo || cov > coverageHi) {
		return cov, fmt.Errorf("coordinator CIs covered the exact join size in %.1f%% of %d synopses, outside [%g, %g]", cov, probes, coverageLo, coverageHi)
	}
	return cov, nil
}
