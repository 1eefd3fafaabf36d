package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/obs"
	"relest/internal/query"
	"relest/internal/relation"
	"relest/internal/server"
	"relest/internal/workload"
)

// EstimateResponse is the coordinator's estimate body: the shard daemon's
// response shape plus degradation fields. Both extras are omitempty, so a
// fully-answered response — in particular every shards=1 response — is
// byte-identical to a single node's.
type EstimateResponse struct {
	server.EstimateResponse
	// Partial reports that one or more shards missed the deadline and the
	// estimate covers the answered strata only, scaled up and with the
	// between-shard variance folded into a widened CI.
	Partial bool `json:"partial,omitempty"`
	// ShardsMissed lists the shard ids that missed, ascending.
	ShardsMissed []int `json:"shards_missed,omitempty"`
}

// BatchItemResult mirrors the shard daemon's batch item, carrying the
// coordinator's estimate shape.
type BatchItemResult struct {
	Status   int               `json:"status"`
	Estimate *EstimateResponse `json:"estimate,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// BatchEstimateResponse is the coordinator's batch body.
type BatchEstimateResponse struct {
	Results   []BatchItemResult `json:"results"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
}

// coordSchemas resolves relation names against the coordinator's
// registry so queries parse and bind exactly as they would on a shard
// (slices are schema-pinned to the full relation's layout).
type coordSchemas struct{ c *Coordinator }

func (p coordSchemas) Schema(name string) (*relation.Schema, bool) {
	p.c.mu.RLock()
	defer p.c.mu.RUnlock()
	cr := p.c.rels[name]
	if cr == nil {
		return nil, false
	}
	return cr.rel.Schema(), true
}

// keyPos resolves a relation to its shard-key column for shardability
// checks.
func (c *Coordinator) keyPos(rel string) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cr := c.rels[rel]
	if cr == nil {
		return 0, false
	}
	return cr.keyCol, true
}

func coordReqMetric(status int) string {
	return obs.L(mCoordReq, "code", strconv.Itoa(status))
}

// validateEstimate runs every check the coordinator can decide without
// touching a shard: the shard daemon's own request validation
// (server.ValidateEstimate, bound against the coordinator's registry), so
// a request a single node would refuse gets the node's exact answer and
// never fans out, then the refusals that are the coordinator's own. On
// success it returns the normalized request (mode filled in).
func (c *Coordinator) validateEstimate(ctx context.Context, req server.EstimateRequest) (server.EstimateRequest, int, string) {
	p, status, msg := server.ValidateEstimate(ctx, req, func(synopsis, _ string) (query.SchemaProvider, int, string) {
		c.mu.RLock()
		syn := c.syns[synopsis]
		c.mu.RUnlock()
		if syn == nil {
			return nil, http.StatusNotFound, fmt.Sprintf("no synopsis %q", synopsis)
		}
		return coordSchemas{c}, 0, ""
	})
	if status != 0 {
		return req, status, msg
	}
	if p.Req.Mode != "plain" {
		return req, http.StatusBadRequest, fmt.Sprintf("the coordinator supports plain mode only (got %q); sequential and deadline sampling run on single nodes", p.Req.Mode)
	}
	if p.Tiered {
		return req, http.StatusBadRequest, "the coordinator supports the sample tier only; tier_policy and precision run on single nodes"
	}
	if c.cfg.Spec.Shards > 1 {
		// AVG is a ratio of two estimates, not a linear aggregate: each
		// shard answers its own sum/count ratio, and summing ratios across
		// strata is ~S times the true average — a silently wrong number,
		// which the degradation contract forbids. Refused like a
		// non-shardable join until the protocol carries the underlying sum
		// and count partials separately.
		if p.Stmt.Agg == "avg" {
			return req, http.StatusUnprocessableEntity, "avg does not decompose into a per-shard sum (each shard's ratio is not a stratum partial); run avg against a single node or shards=1"
		}
		poly, err := algebra.Normalize(p.Stmt.Expr)
		if err != nil {
			return req, http.StatusUnprocessableEntity, err.Error()
		}
		if err := checkShardable(poly, c.keyPos); err != nil {
			return req, http.StatusUnprocessableEntity, err.Error()
		}
	}
	return p.Req, 0, ""
}

// shardOutcome is one shard's answer to a fanned-out estimate.
type shardOutcome struct {
	resp   *server.EstimateResponse
	status int
	errMsg string
	missed bool
}

// shardBudget is the time each shard sub-request may take: 90% of the
// remaining request budget — the same margin deadline-mode estimation
// keeps for itself — so the coordinator always has time to merge and
// answer even when a shard runs to the wire. A non-positive budget means
// the request is out of time before any fanout.
func (c *Coordinator) shardBudget(ctx context.Context) time.Duration {
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(c.cfg.RequestTimeout)
	}
	return time.Until(deadline) * 9 / 10
}

const budgetExhausted = "request budget exhausted before fanout"

// shardReply is one shard's raw answer to a fanned-out sub-request.
type shardReply struct {
	status int
	raw    []byte
	err    error
}

// fanShards posts one sub-request per shard to path, on behalf of tenant,
// and returns the raw replies by shard index, or nil when the request is
// out of time before any fanout. body builds shard s's sub-request, given
// the time budget each shard gets in milliseconds; each call runs under
// that budget with shed retries, and its latency is observed per shard.
func (c *Coordinator) fanShards(ctx context.Context, tenant, path string, body func(s int, budgetMS int64) any) []shardReply {
	shardBudget := c.shardBudget(ctx)
	if shardBudget <= 0 {
		return nil
	}
	drivers := c.shardDrivers()
	n := len(drivers)
	c.col.Add(mFanout, float64(n))
	replies := make([]shardReply, n)
	workload.Fanout(n, n, func(s int) {
		sctx, cancel := context.WithTimeout(ctx, shardBudget)
		defer cancel()
		start := time.Now()
		status, raw, err := forTenant(drivers[s], tenant).DoRetry(sctx, path, body(s, max(1, shardBudget.Milliseconds())))
		c.col.Observe(shardLabel(mShardLatency, s), time.Since(start).Seconds())
		replies[s] = shardReply{status, raw, err}
	})
	return replies
}

// fanEstimate issues the per-shard sub-requests for one validated
// estimate and collects the outcomes.
func (c *Coordinator) fanEstimate(ctx context.Context, tenant string, req server.EstimateRequest) ([]shardOutcome, int, string) {
	replies := c.fanShards(ctx, tenant, "/v1/estimate", func(s int, budgetMS int64) any {
		sreq := req
		sreq.Seed = shardSeed(req.Seed, s)
		sreq.TimeoutMS = budgetMS
		return sreq
	})
	if replies == nil {
		return nil, http.StatusGatewayTimeout, budgetExhausted
	}
	outs := make([]shardOutcome, len(replies))
	for s, r := range replies {
		outs[s] = classifyOutcome(r.status, r.raw, r.err)
	}
	return outs, 0, ""
}

// transportFailure classifies a shard call that returned no reply: a
// timeout is a missed deadline and degrades the cluster answer; anything
// else — a refused connection — is a real fault the client must see.
func transportFailure(err error) shardOutcome {
	if errors.Is(err, context.DeadlineExceeded) || errIsTimeout(err) {
		return shardOutcome{missed: true}
	}
	return shardOutcome{status: http.StatusBadGateway, errMsg: err.Error()}
}

// answerOutcome classifies one shard answer — a singleton reply or one
// item of a batch reply: an estimate is a partial to merge, the shard's
// own 504/499 is a missed deadline, and any other status (a 4xx, say) is
// passed through, never papered over.
func answerOutcome(status int, resp *server.EstimateResponse, errMsg string) shardOutcome {
	switch {
	case resp != nil:
		return shardOutcome{resp: resp, status: status}
	case status == http.StatusGatewayTimeout || status == server.StatusClientClosedRequest:
		return shardOutcome{missed: true}
	default:
		return shardOutcome{status: status, errMsg: errMsg}
	}
}

// classifyOutcome sorts a singleton shard reply into answered /
// deadline-missed / failed.
func classifyOutcome(status int, raw []byte, err error) shardOutcome {
	if err != nil {
		return transportFailure(err)
	}
	if status == http.StatusOK {
		var resp server.EstimateResponse
		if jsonErr := json.Unmarshal(raw, &resp); jsonErr != nil {
			return shardOutcome{status: http.StatusBadGateway, errMsg: fmt.Sprintf("undecodable shard response: %v", jsonErr)}
		}
		return answerOutcome(status, &resp, "")
	}
	var e server.ErrorResponse
	msg := string(raw)
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	return answerOutcome(status, nil, msg)
}

// errIsTimeout reports transport-level timeouts (net.Error with Timeout,
// or a context deadline wrapped by net/http).
func errIsTimeout(err error) bool {
	type timeout interface{ Timeout() bool }
	for err != nil {
		if t, ok := err.(timeout); ok && t.Timeout() {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// mergeOutcomes composes the shard partials into the cluster response.
// All shards answered → the plain stratified sum. Some missed → the
// two-stage degraded estimator with its widened CI, partial: true and the
// missed shard ids on the wire; the one thing never served is a silently
// wrong number.
func (c *Coordinator) mergeOutcomes(req server.EstimateRequest, outs []shardOutcome) (int, any) {
	var missed []int
	var parts []estimator.Partial
	var answered []*server.EstimateResponse
	for i, o := range outs {
		if o.missed {
			missed = append(missed, i)
			c.col.Add(shardLabel(mDeadlineMiss, i), 1)
			continue
		}
		if o.resp == nil {
			// A cluster of one shard refuses in its shard's words, so its
			// refusals stay byte-identical to a node's.
			msg := o.errMsg
			if len(outs) > 1 {
				msg = fmt.Sprintf("shard %d: %s", i, msg)
			}
			return o.status, server.ErrorResponse{Error: msg}
		}
		p := estimator.Partial{Value: o.resp.Estimate.Value, Variance: math.NaN(), Method: estimator.VarNone, Terms: o.resp.Estimate.Terms}
		if o.resp.Estimate.Variance != nil {
			p.Variance = *o.resp.Estimate.Variance
			p.Method = estimator.VarAnalytic
		}
		parts = append(parts, p)
		answered = append(answered, o.resp)
	}
	if len(answered) == 0 {
		return http.StatusGatewayTimeout, server.ErrorResponse{Error: "every shard missed the deadline"}
	}

	est, rep, err := estimator.MergeStratified(parts, len(outs), estimator.Options{Confidence: req.Confidence})
	if err != nil {
		return http.StatusInternalServerError, server.ErrorResponse{Error: err.Error()}
	}

	// The wire variance-method string is the shards' own when they agree
	// (the shards=1 byte-identity path), "mixed" otherwise.
	methodStr := answered[0].Estimate.VarianceMethod
	tier := answered[0].Tier
	samples := map[string]int{}
	rounds := 0
	for _, a := range answered {
		if a.Estimate.VarianceMethod != methodStr {
			methodStr = "mixed"
		}
		if a.Tier != tier {
			tier = "mixed"
		}
		for k, v := range a.SamplesConsumed {
			samples[k] += v
		}
		rounds += a.Rounds
	}

	// Confidence is the request's level as the shards echo it: 0 on avg,
	// which has no CI, so a shards=1 avg stays byte-identical to a node's.
	result := server.EstimateResult{
		Value:          est.Value,
		StdErr:         est.StdErr,
		Lo:             est.Lo,
		Hi:             est.Hi,
		Confidence:     answered[0].Estimate.Confidence,
		VarianceMethod: methodStr,
		Terms:          est.Terms,
	}
	if est.VarianceMethod != estimator.VarNone && !math.IsNaN(est.Variance) {
		v := est.Variance
		result.Variance = &v
	}
	resp := EstimateResponse{
		EstimateResponse: server.EstimateResponse{
			Query:           req.Query,
			Synopsis:        req.Synopsis,
			Mode:            req.Mode,
			Estimate:        result,
			SamplesConsumed: samples,
			Rounds:          rounds,
			Tier:            tier,
		},
	}
	if rep.Partial {
		resp.Partial = true
		sort.Ints(missed)
		resp.ShardsMissed = missed
		c.col.Add(mPartialResp, 1)
	}
	return http.StatusOK, resp
}

// requestCtx applies the effective timeout: the client's timeout_ms when
// given (clamped to the server cap), the coordinator default otherwise.
func (c *Coordinator) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := c.cfg.RequestTimeout
	if timeoutMS > 0 {
		if t := time.Duration(timeoutMS) * time.Millisecond; t < d {
			d = t
		}
	}
	return context.WithTimeout(r.Context(), d)
}

func (c *Coordinator) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if c.refuseDraining(w) {
		c.col.Add(coordReqMetric(http.StatusServiceUnavailable), 1)
		return
	}
	var req server.EstimateRequest
	if !server.DecodeBody(w, r, &req) {
		c.col.Add(coordReqMetric(http.StatusBadRequest), 1)
		return
	}
	ctx, cancel := c.requestCtx(r, req.TimeoutMS)
	defer cancel()
	status, body := c.doEstimate(ctx, callerTenant(r), req)
	c.col.Add(coordReqMetric(status), 1)
	_ = server.WriteJSON(w, status, body)
}

func (c *Coordinator) doEstimate(ctx context.Context, tenant string, req server.EstimateRequest) (int, any) {
	req, status, msg := c.validateEstimate(ctx, req)
	if status != 0 {
		return status, server.ErrorResponse{Error: msg}
	}
	outs, status, msg := c.fanEstimate(ctx, tenant, req)
	if status != 0 {
		return status, server.ErrorResponse{Error: msg}
	}
	//lint:ignore detflow the shard deadline budget decides only WHICH strata answered; the merge itself sums per-shard partials in shard-index order, bit-identical for any fixed answered set
	return c.mergeOutcomes(req, outs)
}

// handleBatchEstimate answers a batch and counts its outcome once in the
// coordinator's request counter, as handleEstimate does a single query.
func (c *Coordinator) handleBatchEstimate(w http.ResponseWriter, r *http.Request) {
	if c.refuseDraining(w) {
		c.col.Add(coordReqMetric(http.StatusServiceUnavailable), 1)
		return
	}
	var breq server.BatchEstimateRequest
	if !server.DecodeBody(w, r, &breq) {
		c.col.Add(coordReqMetric(http.StatusBadRequest), 1)
		return
	}
	ctx, cancel := c.requestCtx(r, breq.TimeoutMS)
	defer cancel()
	status, body := c.doBatch(ctx, callerTenant(r), breq)
	c.col.Add(coordReqMetric(status), 1)
	_ = server.WriteJSON(w, status, body)
}

// doBatch validates every query locally, then issues exactly one batch
// sub-request per shard carrying all fan-worthy items — one admission slot
// per shard per batch, however many queries ride along — and merges per
// item.
func (c *Coordinator) doBatch(ctx context.Context, tenant string, breq server.BatchEstimateRequest) (int, any) {
	if len(breq.Queries) == 0 {
		return http.StatusBadRequest, server.ErrorResponse{Error: "empty batch"}
	}
	if len(breq.Queries) > c.cfg.MaxBatchQueries {
		return http.StatusBadRequest, server.ErrorResponse{Error: fmt.Sprintf("batch of %d exceeds the %d-query limit", len(breq.Queries), c.cfg.MaxBatchQueries)}
	}
	results := make([]BatchItemResult, len(breq.Queries))
	var fanIdx []int // batch positions that passed validation, in order
	normalized := make([]server.EstimateRequest, len(breq.Queries))
	for i, q := range breq.Queries {
		nq, status, msg := c.validateEstimate(ctx, q)
		if status != 0 {
			results[i] = BatchItemResult{Status: status, Error: msg}
			continue
		}
		normalized[i] = nq
		fanIdx = append(fanIdx, i)
	}

	if len(fanIdx) > 0 {
		c.fanBatch(ctx, tenant, normalized, fanIdx, results)
	}

	out := BatchEstimateResponse{Results: results}
	for _, res := range results {
		if res.Status == http.StatusOK {
			out.Succeeded++
		} else {
			out.Failed++
		}
	}
	return http.StatusOK, out
}

// batchReply decodes one shard's reply to a batch of the given size, or
// classifies the failure every item of that shard inherits.
func batchReply(status int, raw []byte, err error, items int) (*server.BatchEstimateResponse, shardOutcome) {
	if err != nil {
		return nil, transportFailure(err)
	}
	fault := func(msg string) (*server.BatchEstimateResponse, shardOutcome) {
		return nil, shardOutcome{status: http.StatusBadGateway, errMsg: msg}
	}
	if status != http.StatusOK {
		return fault(fmt.Sprintf("shard batch status %d: %s", status, raw))
	}
	var resp server.BatchEstimateResponse
	if jsonErr := json.Unmarshal(raw, &resp); jsonErr != nil {
		return fault(jsonErr.Error())
	}
	if len(resp.Results) != items {
		return fault(fmt.Sprintf("shard returned %d results for %d queries", len(resp.Results), items))
	}
	return &resp, shardOutcome{}
}

// fanBatch sends every shard one batch sub-request carrying the validated
// items (normalized[i] for i in fanIdx) and merges the answers per item
// into results. A shard whose whole batch call failed contributes that
// failure to every item, classified as the singleton path classifies it.
func (c *Coordinator) fanBatch(ctx context.Context, tenant string, normalized []server.EstimateRequest, fanIdx []int, results []BatchItemResult) {
	raws := c.fanShards(ctx, tenant, "/v1/estimate/batch", func(s int, budgetMS int64) any {
		sub := server.BatchEstimateRequest{
			Queries:   make([]server.EstimateRequest, len(fanIdx)),
			TimeoutMS: budgetMS,
		}
		for k, i := range fanIdx {
			sreq := normalized[i]
			sreq.Seed = shardSeed(sreq.Seed, s)
			sreq.TimeoutMS = 0 // the batch budget governs
			sub.Queries[k] = sreq
		}
		return sub
	})
	if raws == nil {
		for _, i := range fanIdx {
			results[i] = BatchItemResult{Status: http.StatusGatewayTimeout, Error: budgetExhausted}
		}
		return
	}
	// Per shard: the decoded batch reply, or the outcome its failure
	// gives every item.
	n := len(raws)
	replies := make([]*server.BatchEstimateResponse, n)
	failures := make([]shardOutcome, n)
	for s, r := range raws {
		replies[s], failures[s] = batchReply(r.status, r.raw, r.err, len(fanIdx))
	}

	for k, i := range fanIdx {
		outs := make([]shardOutcome, n)
		for s := range outs {
			if replies[s] == nil {
				outs[s] = failures[s]
				continue
			}
			item := replies[s].Results[k]
			outs[s] = answerOutcome(item.Status, item.Estimate, item.Error)
		}
		//lint:ignore detflow the shard deadline budget decides only WHICH strata answered; the merge itself sums per-shard partials in shard-index order, bit-identical for any fixed answered set
		status, body := c.mergeOutcomes(normalized[i], outs)
		if status == http.StatusOK {
			resp := body.(EstimateResponse)
			results[i] = BatchItemResult{Status: status, Estimate: &resp}
		} else {
			results[i] = BatchItemResult{Status: status, Error: body.(server.ErrorResponse).Error}
		}
	}
}
