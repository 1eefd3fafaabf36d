package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/query"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/workload"
)

// StatusClientClosedRequest is the nginx-convention status for "client
// cancelled the request"; the client is usually gone, but the code keeps
// access logs and metrics honest.
const StatusClientClosedRequest = 499

// maxBodyBytes caps JSON request bodies; CSV uploads are capped separately
// by Config.MaxUploadBytes (default defaultMaxUploadBytes).
const (
	maxBodyBytes          = 64 << 20
	defaultMaxUploadBytes = 64 << 20
)

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/relations/{name}", s.handleUploadRelation)
	mux.HandleFunc("DELETE /v1/relations/{name}", s.handleDeleteRelation)
	mux.HandleFunc("GET /v1/relations", s.handleListRelations)
	mux.HandleFunc("POST /v1/generate", s.handleGenerate)
	mux.HandleFunc("POST /v1/synopses/{name}", s.handleCreateSynopsis)
	mux.HandleFunc("DELETE /v1/synopses/{name}", s.handleDeleteSynopsis)
	mux.HandleFunc("GET /v1/synopses", s.handleListSynopses)
	mux.HandleFunc("POST /v1/synopses/{name}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	mux.HandleFunc("POST /v1/estimate/batch", s.handleBatchEstimate)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleUploadRelation registers the CSV request body as a relation. The
// import streams record-by-record into column storage; MaxUploadBytes
// bounds the raw bytes read (MaxBytesReader additionally closes the
// connection on oversized bodies instead of draining them).
func (s *Server) handleUploadRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// The Go 1.22 mux matches the *escaped* path, so "..%2F..%2Fx"
	// reaches PathValue as "../../x"; under -snapshot-dir the name
	// becomes a file name inside the snapshot directory, so anything
	// outside the safe charset is rejected before the import starts.
	if !ValidName(name) {
		_ = WriteError(w, http.StatusBadRequest, errBadName("relation", name).Error())
		return
	}
	// An explicit ?schema= pins the column kinds instead of inferring them
	// from the data. The sharded tier depends on this: a shard's slice can
	// be empty or degenerate (say, all-integer values in a float column),
	// and inference over the slice alone would give shards divergent
	// layouts for the same relation.
	var schema *relation.Schema
	if spec := r.URL.Query().Get("schema"); spec != "" {
		var err error
		if schema, err = relation.ParseSchema(spec); err != nil {
			_ = WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	rel, err := relation.ImportCSVOptions(name, body, relation.ImportOptions{Schema: schema, MaxBytes: s.cfg.MaxUploadBytes})
	if err != nil {
		_ = WriteError(w, http.StatusBadRequest, fmt.Sprintf("importing CSV: %v", err))
		return
	}
	if err := s.reg.addRelation(rel); err != nil {
		_ = WriteError(w, http.StatusConflict, err.Error())
		return
	}
	s.col.Set(mRelationBytes, float64(s.reg.relationBytes()))
	_ = WriteJSON(w, http.StatusCreated, RelationInfo{Name: name, Rows: rel.Len(), Schema: rel.Schema().String()})
}

// handleDeleteRelation drops a registered relation. Refused with 409
// while any synopsis references it — delete the synopses first.
func (s *Server) handleDeleteRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if status, err := s.reg.removeRelation(name); err != nil {
		_ = WriteError(w, status, err.Error())
		return
	}
	s.col.Set(mRelationBytes, float64(s.reg.relationBytes()))
	_ = WriteJSON(w, http.StatusOK, DeleteResponse{Deleted: name})
}

// handleDeleteSynopsis drops a named synopsis. In-flight estimates that
// already resolved it finish over the sample they hold; later requests
// answer 404.
func (s *Server) handleDeleteSynopsis(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if status, err := s.reg.removeSynopsis(name); err != nil {
		_ = WriteError(w, status, err.Error())
		return
	}
	_ = WriteJSON(w, http.StatusOK, DeleteResponse{Deleted: name})
}

func (s *Server) handleListRelations(w http.ResponseWriter, r *http.Request) {
	_ = WriteJSON(w, http.StatusOK, s.reg.relations())
}

// GenerateDataset synthesizes the relations a GenerateRequest describes
// (cmd/relgen's kinds), applying the endpoint's defaults. It is exported
// for the sharded coordinator (internal/cluster), which must register
// datasets identical to a single node's for the same request.
func GenerateDataset(req GenerateRequest) ([]*relation.Relation, error) {
	if req.N <= 0 {
		req.N = 10_000
	}
	if req.Domain <= 0 {
		req.Domain = 1000
	}
	//lint:ignore floateq an exactly-absent JSON field decodes to exactly 0, the default sentinel
	if req.Z1 == 0 {
		req.Z1 = 0.5
	}
	//lint:ignore floateq an exactly-absent JSON field decodes to exactly 0, the default sentinel
	if req.Z2 == 0 {
		req.Z2 = 1.0
	}
	if req.Regions <= 0 {
		req.Regions = 10
	}
	if req.Departments <= 0 {
		req.Departments = 25
	}
	rng := sampling.NewSource(req.Seed).Rand(0)
	var outputs []*relation.Relation
	switch req.Kind {
	case "zipf-pair":
		var corr workload.Correlation
		switch req.Correlation {
		case "positive":
			corr = workload.Positive
		case "", "independent":
			corr = workload.Independent
		case "negative":
			corr = workload.Negative
		default:
			return nil, fmt.Errorf("unknown correlation %q", req.Correlation)
		}
		r1, r2 := workload.JoinPair(rng, workload.JoinPairSpec{
			Z1: req.Z1, Z2: req.Z2, Domain: req.Domain, N1: req.N, N2: req.N,
			Correlation: corr, Smooth: req.Smooth,
		})
		outputs = []*relation.Relation{r1, r2}
	case "clustered":
		r1, r2 := workload.ClusteredPair(rng, workload.ClusterSpec{
			Regions: req.Regions, Domain: req.Domain, N1: req.N, N2: req.N,
		})
		outputs = []*relation.Relation{r1, r2}
	case "company":
		emp, dept := workload.Company(rng, req.N, req.Departments)
		outputs = []*relation.Relation{emp, dept}
	default:
		return nil, fmt.Errorf("unknown kind %q (want zipf-pair, clustered or company)", req.Kind)
	}
	return outputs, nil
}

// handleGenerate synthesizes a deterministic dataset (cmd/relgen's
// kinds) and registers the produced relations.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	outputs, err := GenerateDataset(req)
	if err != nil {
		_ = WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	infos := make([]RelationInfo, 0, len(outputs))
	for _, rel := range outputs {
		if err := s.reg.addRelation(rel); err != nil {
			_ = WriteError(w, http.StatusConflict, err.Error())
			return
		}
		infos = append(infos, RelationInfo{Name: rel.Name(), Rows: rel.Len(), Schema: rel.Schema().String()})
	}
	s.col.Set(mRelationBytes, float64(s.reg.relationBytes()))
	_ = WriteJSON(w, http.StatusCreated, infos)
}

func (s *Server) handleCreateSynopsis(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req SynopsisRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if err := s.reg.addSynopsis(name, requestTenant(r), req); err != nil {
		status := http.StatusBadRequest
		var qerr *quotaError
		if errors.As(err, &qerr) {
			status = qerr.status
		}
		_ = WriteError(w, status, err.Error())
		return
	}
	entry, _ := s.reg.synopsis(name)
	_ = WriteJSON(w, http.StatusCreated, entry.info(name))
}

// ValidateSynopsis runs every check on a synopsis-create request that needs
// no sampling and returns the request with its kind defaulted to static.
// In order: the name, a non-empty relation set, the kind, then relation by
// relation in name order that it is registered (registered looks a name up
// in the caller's catalog) and, for a static synopsis, that its sample size
// is ≥ 1 (incremental sizes are ignored). A node runs it against its
// catalog and the sharded coordinator against its routing table, so both
// create the same synopses and refuse the rest with the same 400 body.
func ValidateSynopsis(name string, req SynopsisRequest, registered func(rel string) bool) (SynopsisRequest, error) {
	if req.Kind == "" {
		req.Kind = "static"
	}
	if !ValidName(name) {
		return req, errBadName("synopsis", name)
	}
	if len(req.Relations) == 0 {
		return req, fmt.Errorf("synopsis %q: no relations given", name)
	}
	if req.Kind != "static" && req.Kind != "incremental" {
		return req, fmt.Errorf("synopsis %q: unknown kind %q (want static or incremental)", name, req.Kind)
	}
	rels := make([]string, 0, len(req.Relations))
	for rel := range req.Relations {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		if !registered(rel) {
			return req, fmt.Errorf("synopsis %q: relation %q not registered", name, rel)
		}
		if n := req.Relations[rel]; req.Kind == "static" && n < 1 {
			return req, fmt.Errorf("synopsis %q: sample size %d for %q (want ≥ 1)", name, n, rel)
		}
	}
	return req, nil
}

// requestTenant resolves the tenant a request is accounted to.
func requestTenant(r *http.Request) string {
	if t := r.Header.Get("X-Relest-Tenant"); t != "" {
		return t
	}
	return defaultTenant
}

func (s *Server) handleListSynopses(w http.ResponseWriter, r *http.Request) {
	_ = WriteJSON(w, http.StatusOK, s.reg.synopses())
}

// handleStream applies one insert/delete event to an incremental
// synopsis. An event the synopsis refuses as contradicting the stream
// contract (estimator.ErrRefusedEvent) answers 409, is never logged and
// is counted by reason (refusedMetric).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	entry, ok := s.reg.synopsis(name)
	if !ok {
		_ = WriteError(w, http.StatusNotFound, fmt.Sprintf("no synopsis %q", name))
		return
	}
	var req StreamRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if err := entry.apply(s.reg, name, req); err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, estimator.ErrRefusedEvent):
			status = http.StatusConflict
			s.col.Add(refusedMetric(req.Op), 1)
		case errors.Is(err, errStreamLog):
			status = http.StatusInternalServerError
		}
		_ = WriteError(w, status, err.Error())
		return
	}
	_ = WriteJSON(w, http.StatusOK, entry.info(name))
}

// requestCtx applies a request's effective timeout: the client's
// timeout_ms when given, clamped to the server's RequestTimeout.
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if d := time.Duration(timeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	return context.WithTimeout(r.Context(), timeout)
}

// normalizeMode maps a request's mode to its canonical name (empty means
// plain) and reports whether it is one of the closed set the service runs.
func normalizeMode(mode string) (string, bool) {
	switch mode {
	case "":
		return "plain", true
	case "plain", "sequential", "deadline":
		return mode, true
	}
	return mode, false
}

// runAdmitted admits do into the bounded queue as one task — one queue
// slot, one tenant slot and one worker — under the request's effective
// timeout, waits for a worker to run it, counts the outcome (latency under
// the given mode label) and writes it. The ResponseWriter never leaves
// this goroutine.
func (s *Server) runAdmitted(w http.ResponseWriter, r *http.Request, start time.Time, timeoutMS int64, mode string, do func(context.Context) (int, any)) {
	ctx, cancel := s.requestCtx(r, timeoutMS)
	defer cancel()
	t := &task{ctx: ctx, do: do, tenant: requestTenant(r), done: make(chan struct{})}
	if ok, status, msg := s.admit(t); !ok {
		s.col.Add(reqMetric(status), 1)
		_ = WriteError(w, status, msg)
		return
	}
	<-t.done
	if t.status == http.StatusGatewayTimeout || t.status == StatusClientClosedRequest {
		s.col.Add(mCancelled, 1)
	}
	s.col.Add(reqMetric(t.status), 1)
	s.col.Observe(latencyMetric(mode), time.Since(start).Seconds())
	_ = WriteJSON(w, t.status, t.body)
}

// handleEstimate admits the request into the bounded queue, waits for a
// worker to run it, and writes the outcome.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req EstimateRequest
	if !DecodeBody(w, r, &req) {
		s.col.Add(reqMetric(http.StatusBadRequest), 1)
		return
	}
	// Label values must stay a closed set: the mode is client input, and
	// an arbitrary string here would let clients mint unbounded metric
	// series. Unknown modes are rejected later with a 400; their latency
	// is recorded under one shared label.
	mode, known := normalizeMode(req.Mode)
	if !known {
		mode = "invalid"
	}
	s.runAdmitted(w, r, start, req.TimeoutMS, mode, func(ctx context.Context) (int, any) { return s.doEstimate(ctx, req) })
}

// handleBatchEstimate admits a whole batch of estimation queries as one
// task, so admission control is paid once for the batch. Each query still
// parses, plans and estimates on its own. The batch answers 200 whenever
// it ran; per-query failures are reported per item (partial success).
func (s *Server) handleBatchEstimate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req BatchEstimateRequest
	if !DecodeBody(w, r, &req) {
		s.col.Add(reqMetric(http.StatusBadRequest), 1)
		return
	}
	if len(req.Queries) == 0 {
		s.col.Add(reqMetric(http.StatusBadRequest), 1)
		_ = WriteError(w, http.StatusBadRequest, "batch has no queries")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatchQueries {
		s.col.Add(reqMetric(http.StatusBadRequest), 1)
		_ = WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d queries; the server caps batches at %d", len(req.Queries), s.cfg.MaxBatchQueries))
		return
	}
	s.runAdmitted(w, r, start, req.TimeoutMS, "batch", func(ctx context.Context) (int, any) { return s.doBatch(ctx, req) })
}

// doBatch runs an admitted batch — counted here, once per batch — with its
// queries in order on one worker. A query that
// fails does not abort the batch — its item records the status the
// singleton endpoint would have answered — but once the batch context
// dies, every remaining item answers the cancellation status
// immediately: the ctx check at the top of
// ValidateEstimate guarantees no sampling starts (and therefore no
// partial estimate is ever surfaced) after a cancel.
func (s *Server) doBatch(ctx context.Context, req BatchEstimateRequest) (int, any) {
	s.col.Add(mBatch, 1)
	resp := BatchEstimateResponse{Results: make([]BatchItemResult, len(req.Queries))}
	for i := range req.Queries {
		q := req.Queries[i]
		qctx := ctx
		var qcancel context.CancelFunc
		if q.TimeoutMS > 0 {
			// A per-item timeout bounds that item only; the batch keeps
			// running afterwards.
			qctx, qcancel = context.WithTimeout(ctx, time.Duration(q.TimeoutMS)*time.Millisecond)
		}
		status, body := s.doEstimate(qctx, q)
		if qcancel != nil {
			qcancel()
		}
		item := BatchItemResult{Status: status}
		if status == http.StatusOK {
			er, ok := body.(EstimateResponse)
			if !ok {
				status = http.StatusInternalServerError
				item = BatchItemResult{Status: status, Error: "internal: unexpected estimate body shape"}
				resp.Failed++
			} else {
				item.Estimate = &er
				resp.Succeeded++
			}
		} else {
			if eresp, ok := body.(ErrorResponse); ok {
				item.Error = eresp.Error
			}
			resp.Failed++
		}
		s.col.Add(batchQueryMetric(status), 1)
		resp.Results[i] = item
	}
	return http.StatusOK, resp
}

// handleSnapshot persists the current registry (relations, synopsis
// specs) to the configured snapshot directory. The WAL is already on
// disk; a save never truncates it.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SnapshotDir == "" {
		_ = WriteError(w, http.StatusBadRequest, "snapshots are disabled: the server has no snapshot directory")
		return
	}
	rels, syns, err := s.reg.saveSnapshot(s.cfg.SnapshotDir)
	if err != nil {
		_ = WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.col.Add(mSnapshotSaves, 1)
	_ = WriteJSON(w, http.StatusOK, SnapshotResponse{Dir: s.cfg.SnapshotDir, Relations: rels, Synopses: syns})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.col.Metrics().WritePrometheus(w); err != nil {
		// Too late for a status change; the broken pipe speaks for itself.
		return
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_ = WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.draining.Load(),
	})
}

// DecodeBody parses a JSON request body into v, answering 400 on
// malformed input. Unknown fields are rejected so typos fail loudly.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		_ = WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding request body: %v", err))
		return false
	}
	return true
}

// synopsisSchemas adapts a Synopsis into a query.SchemaProvider: queries
// bind against the sample relations' schemas, which match the bases'.
type synopsisSchemas struct{ syn *estimator.Synopsis }

func (p synopsisSchemas) Schema(name string) (*relation.Schema, bool) {
	r, ok := p.syn.Relation(name)
	if !ok {
		return nil, false
	}
	return r.Schema(), true
}

// PreparedEstimate is an estimate request that passed ValidateEstimate:
// the request with its mode filled in, the parsed statement, and the
// decoded variance method and tier policy.
type PreparedEstimate struct {
	Req      EstimateRequest
	Stmt     *query.Statement
	Variance estimator.VarianceMethod
	Tier     estimator.TierPolicy
	// Tiered reports that the request opted into the tier planner
	// (tier_policy or precision set); only then does the response carry
	// a tier field.
	Tiered bool
}

// ValidateEstimate runs every check on an estimate request that needs no
// synopsis data, in the order that fixes which error a request with
// several faults answers. A non-zero status refuses the request with that
// status and message. schemasFor resolves the named synopsis, for an
// already validated mode, to the schemas its query binds against (or to
// the refusal for an unknown or unsuitable synopsis). Single nodes and the
// sharded coordinator both validate through this function, which is what
// makes a coordinator refuse exactly what a node refuses, before any
// fanout.
func ValidateEstimate(ctx context.Context, req EstimateRequest, schemasFor func(synopsis, mode string) (query.SchemaProvider, int, string)) (PreparedEstimate, int, string) {
	// A context that is already dead — the request deadline expired or the
	// client cancelled while the task sat in the queue, or an earlier batch
	// item consumed the batch budget — must answer with the cancellation
	// status before any sampling work, never with a confusing validation
	// error (deadline mode would otherwise see a non-positive budget and
	// answer 400) and never with a partial estimate.
	if err := ctx.Err(); err != nil {
		return PreparedEstimate{}, EstimateErrorStatus(err), err.Error()
	}
	if req.Query == "" {
		return PreparedEstimate{}, http.StatusBadRequest, "no query given"
	}
	if req.Synopsis == "" {
		return PreparedEstimate{}, http.StatusBadRequest, "no synopsis given"
	}
	var known bool
	if req.Mode, known = normalizeMode(req.Mode); !known {
		return PreparedEstimate{}, http.StatusBadRequest, fmt.Sprintf("unknown mode %q (want plain, sequential or deadline)", req.Mode)
	}
	schemas, status, msg := schemasFor(req.Synopsis, req.Mode)
	if status != 0 {
		return PreparedEstimate{}, status, msg
	}
	st, err := query.Parse(req.Query, schemas)
	if err != nil {
		return PreparedEstimate{}, http.StatusBadRequest, err.Error()
	}
	if st.IsDistinct() || st.Agg == "group" {
		return PreparedEstimate{}, http.StatusBadRequest, "the estimation service supports count, sum and avg queries"
	}
	p := PreparedEstimate{Req: req, Stmt: st}
	if p.Variance, err = parseVariance(req.Variance); err != nil {
		return PreparedEstimate{}, http.StatusBadRequest, err.Error()
	}
	if p.Tier, err = estimator.ParseTierPolicy(req.TierPolicy); err != nil {
		return PreparedEstimate{}, http.StatusBadRequest, err.Error()
	}
	p.Tiered = p.Tier != estimator.TierDefault || req.Precision > 0
	if p.Tiered && req.Mode != "plain" {
		return PreparedEstimate{}, http.StatusBadRequest, "tier_policy and precision apply to plain mode only"
	}
	if req.Mode != "plain" && st.Agg != "count" {
		return PreparedEstimate{}, http.StatusBadRequest, req.Mode + " mode supports count queries only"
	}
	return p, 0, ""
}

// doEstimate runs one estimation request on a worker goroutine and
// returns the HTTP status and response body. Everything here is
// deterministic for a pinned seed: the response is byte-identical to
// what the library produces directly. A batch item runs through here
// exactly like a singleton request.
func (s *Server) doEstimate(ctx context.Context, req EstimateRequest) (int, any) {
	var entry *synopsisEntry
	var syn *estimator.Synopsis
	p, status, msg := ValidateEstimate(ctx, req, func(synopsis, mode string) (query.SchemaProvider, int, string) {
		var ok bool
		if entry, ok = s.reg.synopsis(synopsis); !ok {
			return nil, http.StatusNotFound, fmt.Sprintf("no synopsis %q", synopsis)
		}
		if entry.inc != nil {
			schemas, err := s.reg.incrementalSchemas(entry, mode)
			if err != nil {
				return nil, http.StatusBadRequest, err.Error()
			}
			return schemas, 0, ""
		}
		var err error
		if syn, err = s.reg.estimationSynopsis(synopsis, entry); err != nil {
			return nil, http.StatusBadRequest, err.Error()
		}
		return synopsisSchemas{syn}, 0, ""
	})
	if status != 0 {
		return status, ErrorResponse{Error: msg}
	}
	if entry.inc != nil {
		// Snapshot only now that the request is valid and its tiering is
		// known: a refused request takes none, and an untiered one never
		// reads the sketch tier (answerPlain runs it TierSampleOnly), so
		// it gets the samples alone.
		var err error
		if syn, err = entry.incrementalSnapshot(p.Tiered); err != nil {
			return http.StatusBadRequest, ErrorResponse{Error: err.Error()}
		}
	}
	req, st := p.Req, p.Stmt
	workers := req.Workers
	if workers == 0 {
		workers = s.cfg.EstimatorWorkers
	}
	opts := estimator.Options{
		Variance:   p.Variance,
		Confidence: req.Confidence,
		Seed:       req.Seed,
		Workers:    workers,
		Recorder:   s.col,
	}

	resp := EstimateResponse{Query: req.Query, Synopsis: req.Synopsis, Mode: req.Mode}
	switch req.Mode {
	case "plain":
		est, tier, err := answerPlain(ctx, p, syn, opts)
		if err != nil {
			return EstimateErrorStatus(err), ErrorResponse{Error: err.Error()}
		}
		resp.Estimate = est
		if p.Tiered {
			resp.Tier = tier
		}
		resp.SamplesConsumed, err = consumedSamples(st.Expr, syn)
		if err != nil {
			return http.StatusInternalServerError, ErrorResponse{Error: err.Error()}
		}
	case "sequential":
		sopts := estimator.SequentialOptions{
			TargetRelErr: req.TargetRelErr,
			Confidence:   req.Confidence,
			Estimate:     opts,
			Seed:         req.Seed,
		}
		if sopts.TargetRelErr <= 0 {
			sopts.TargetRelErr = 0.05
		}
		res, err := estimator.SequentialCountContext(ctx, st.Expr, syn, sopts)
		if err != nil {
			return EstimateErrorStatus(err), ErrorResponse{Error: err.Error()}
		}
		pilot := toResult(res.Pilot)
		met := res.TargetMet
		resp.Estimate = toResult(res.Final)
		resp.Pilot = &pilot
		resp.TargetMet = &met
		resp.SamplesConsumed = res.SampleSizes
	case "deadline":
		budget := time.Duration(req.BudgetMS) * time.Millisecond
		remaining := time.Duration(0)
		if dl, ok := ctx.Deadline(); ok {
			remaining = time.Until(dl)
		}
		if budget <= 0 {
			// No explicit budget: spend 90% of the request's remaining
			// wall clock sampling and keep the rest for the response.
			budget = remaining * 9 / 10
		} else if remaining > 0 && budget > remaining {
			budget = remaining * 9 / 10
		}
		if budget <= 0 {
			if _, hasDeadline := ctx.Deadline(); hasDeadline {
				// The request had a deadline but nothing of it remains (it
				// expired after ValidateEstimate's entry check): that is a
				// timeout, not a malformed request.
				return http.StatusGatewayTimeout, ErrorResponse{Error: context.DeadlineExceeded.Error()}
			}
			return http.StatusBadRequest, ErrorResponse{Error: "deadline mode needs budget_ms or a request deadline"}
		}
		dopts := estimator.DeadlineOptions{Budget: budget, Estimate: opts, Seed: req.Seed}
		//lint:ignore detflow deadline mode spends the request's remaining wall clock by contract: the budget bounds how many rounds run, and the round count rides on the trace span name
		est, steps, err := estimator.DeadlineCountContext(ctx, st.Expr, syn, dopts)
		if err != nil {
			return EstimateErrorStatus(err), ErrorResponse{Error: err.Error()}
		}
		resp.Estimate = toResult(est)
		resp.Rounds = len(steps)
		if len(steps) > 0 {
			resp.SamplesConsumed = steps[len(steps)-1].SampleSizes
		}
	}
	return http.StatusOK, resp
}

// answerPlain answers a plain-mode statement through one estimation
// handle and reports which tier(s) answered. The handle is sample-only
// unless the request opted into the tier planner; building a tiered handle
// also builds the synopsis's sketch tier (idempotent and mutex-guarded, so
// sharing the static synopsis across concurrent requests stays safe).
// Aggregates are always sample-tier; under the "sketch" policy they fail
// with 422 rather than silently downgrading.
func answerPlain(ctx context.Context, p PreparedEstimate, syn *estimator.Synopsis, opts estimator.Options) (EstimateResult, string, error) {
	policy := p.Tier
	if !p.Tiered {
		policy = estimator.TierSampleOnly
	}
	if p.Stmt.Agg == "avg" {
		// The avg response carries the point value only (see below); a
		// variance pass over the SUM and the COUNT would be work nobody
		// reads.
		opts.Variance = estimator.VarNone
	}
	h := estimator.NewEstimator(syn,
		estimator.WithOptions(opts),
		estimator.WithTierPolicy(policy),
		estimator.WithPrecision(p.Req.Precision))
	req := estimator.Request{Expr: p.Stmt.Expr, Col: p.Stmt.AggCol}
	switch p.Stmt.Agg {
	case "count":
		res, err := h.Count(ctx, req)
		if err != nil {
			return EstimateResult{}, "", err
		}
		return toResult(res.Estimate), res.Tier.Answered, nil
	case "sum":
		res, err := h.Sum(ctx, req)
		if err != nil {
			return EstimateResult{}, "", err
		}
		return toResult(res.Estimate), res.Tier.Answered, nil
	case "avg":
		res, rep, err := h.Avg(ctx, req)
		if err != nil {
			return EstimateResult{}, "", err
		}
		if math.IsNaN(res.Avg) {
			// JSON has no NaN: refuse (422) rather than fail the encode
			// after the 200 header is out.
			return EstimateResult{}, "", errors.New("avg is undefined: the COUNT estimate is 0")
		}
		// AVG is a ratio of two estimates; it has no CI of its own, so
		// only the point value and the underlying term count are set.
		return EstimateResult{
			Value:          res.Avg,
			VarianceMethod: estimator.VarNone.String(),
			Terms:          res.Count.Terms,
		}, rep.Answered, nil
	default:
		return EstimateResult{}, "", fmt.Errorf("unsupported aggregate %q", p.Stmt.Agg)
	}
}

// toResult converts a library estimate to the wire shape (NaN variance
// becomes an absent field).
func toResult(est estimator.Estimate) EstimateResult {
	out := EstimateResult{
		Value:          est.Value,
		StdErr:         est.StdErr,
		Lo:             est.Lo,
		Hi:             est.Hi,
		Confidence:     est.Confidence,
		VarianceMethod: est.VarianceMethod.String(),
		Terms:          est.Terms,
	}
	if !math.IsNaN(est.Variance) {
		v := est.Variance
		out.Variance = &v
	}
	return out
}

// consumedSamples reports the per-relation sample sizes a plain estimate
// read, derived from the normalized polynomial's relation set.
func consumedSamples(e *algebra.Expr, syn *estimator.Synopsis) (map[string]int, error) {
	poly, err := algebra.Normalize(e)
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	for _, name := range poly.RelationNames() {
		n, ok := syn.SampleSize(name)
		if !ok {
			return nil, fmt.Errorf("relation %q missing from synopsis", name)
		}
		out[name] = n
	}
	return out, nil
}

// EstimateErrorStatus maps estimation failures to HTTP statuses:
// request-deadline expiry is 504, client cancellation 499, anything
// else (binding, sample-size, schema errors) 422.
func EstimateErrorStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	default:
		return http.StatusUnprocessableEntity
	}
}

// parseVariance maps the wire name to the library method.
func parseVariance(name string) (estimator.VarianceMethod, error) {
	switch name {
	case "", "auto":
		return estimator.VarAuto, nil
	case "none":
		return estimator.VarNone, nil
	case "analytic":
		return estimator.VarAnalytic, nil
	case "split-sample":
		return estimator.VarSplitSample, nil
	case "jackknife":
		return estimator.VarJackknife, nil
	default:
		return 0, fmt.Errorf("unknown variance method %q", name)
	}
}
