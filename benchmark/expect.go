package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/query"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/server"
)

// mirror is the benchmark's own copy of what the stack under test holds:
// the same generated relations and, for static synopses, the same seeded
// draw. Expected answers and the traced pass's in-process replay run
// against it through the library, never through the server.
type mirror struct {
	rels []*relation.Relation
	syn  *estimator.Synopsis
}

func generateRequest(w *spec, s seeds) server.GenerateRequest {
	return server.GenerateRequest{
		Kind: "zipf-pair", N: w.rows, Domain: w.domain, Z1: 0.5, Z2: 1.0,
		Correlation: "positive", Smooth: true, Seed: s.seed(streamData),
	}
}

func synopsisRequest(w *spec, s seeds) server.SynopsisRequest {
	req := server.SynopsisRequest{
		Kind:      "static",
		Relations: map[string]int{"R1": w.sample, "R2": w.sample},
		Seed:      s.seed(streamSynopsis),
	}
	if w.incremental {
		req.Kind = "incremental"
		req.Capacity = w.sample
	}
	return req
}

// drawStatic repeats the registry's static draw: relations in sorted-name
// order from one generator seeded with the request seed.
func drawStatic(rels []*relation.Relation, req server.SynopsisRequest) (*estimator.Synopsis, error) {
	byName := map[string]*relation.Relation{}
	for _, r := range rels {
		byName[r.Name()] = r
	}
	rng := sampling.NewSource(req.Seed).Rand(0)
	syn := estimator.NewSynopsis()
	for _, name := range sortedKeys(req.Relations) {
		r, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("mirror: relation %q not generated", name)
		}
		n := req.Relations[name]
		if n > r.Len() {
			n = r.Len()
		}
		if err := syn.AddDrawn(r, n, rng); err != nil {
			return nil, fmt.Errorf("mirror: drawing %s: %w", name, err)
		}
	}
	return syn, nil
}

func buildMirror(w *spec, s seeds) (*mirror, error) {
	rels, err := server.GenerateDataset(generateRequest(w, s))
	if err != nil {
		return nil, fmt.Errorf("mirror: %w", err)
	}
	m := &mirror{rels: rels}
	// Incremental synopses are mirrored by replaying acknowledged events
	// (see stream.go); a cluster's per-shard draws are stood in for by one
	// draw of the same total size.
	if !w.incremental {
		if m.syn, err = drawStatic(rels, synopsisRequest(w, s)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// synSchemas lets queries bind against a synopsis's sample schemas, as the
// server does.
type synSchemas struct{ syn *estimator.Synopsis }

func (p synSchemas) Schema(name string) (*relation.Schema, bool) {
	r, ok := p.syn.Relation(name)
	if !ok {
		return nil, false
	}
	return r.Schema(), true
}

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
	}
	return 0, fmt.Errorf("unknown variance method %q", name)
}

// wireResult converts a library estimate to the wire shape (NaN variance
// is an absent field).
func wireResult(est estimator.Estimate) server.EstimateResult {
	out := server.EstimateResult{
		Value: est.Value, StdErr: est.StdErr, Lo: est.Lo, Hi: est.Hi,
		Confidence: est.Confidence, VarianceMethod: est.VarianceMethod.String(), Terms: est.Terms,
	}
	if !math.IsNaN(est.Variance) {
		v := est.Variance
		out.Variance = &v
	}
	return out
}

// libraryOptions maps a request's evaluation fields onto estimator options.
func libraryOptions(req server.EstimateRequest) (estimator.Options, error) {
	variance, err := parseVariance(req.Variance)
	if err != nil {
		return estimator.Options{}, err
	}
	return estimator.Options{Variance: variance, Confidence: req.Confidence, Seed: req.Seed, Workers: req.Workers}, nil
}

// libraryHandle builds the estimation handle a plain request resolves to.
func libraryHandle(syn *estimator.Synopsis, req server.EstimateRequest, opts estimator.Options) (*estimator.Estimator, bool, error) {
	policy, err := estimator.ParseTierPolicy(req.TierPolicy)
	if err != nil {
		return nil, false, err
	}
	tiered := policy != estimator.TierDefault || req.Precision > 0
	if !tiered {
		policy = estimator.TierSampleOnly
	}
	h := estimator.NewEstimator(syn,
		estimator.WithOptions(opts), estimator.WithTierPolicy(policy), estimator.WithPrecision(req.Precision))
	return h, tiered, nil
}

// plainEstimate answers a parsed plain-mode statement through the handle.
func plainEstimate(ctx context.Context, h *estimator.Estimator, st *query.Statement) (server.EstimateResult, string, error) {
	lreq := estimator.Request{Expr: st.Expr, Col: st.AggCol}
	switch st.Agg {
	case "count":
		res, err := h.Count(ctx, lreq)
		return wireResult(res.Estimate), res.Tier.Answered, err
	case "sum":
		res, err := h.Sum(ctx, lreq)
		return wireResult(res.Estimate), res.Tier.Answered, err
	case "avg":
		res, rep, err := h.Avg(ctx, lreq)
		return server.EstimateResult{
			Value: res.Avg, VarianceMethod: estimator.VarNone.String(), Terms: res.Count.Terms,
		}, rep.Answered, err
	}
	return server.EstimateResult{}, "", fmt.Errorf("unsupported aggregate %q", st.Agg)
}

// consumedSamples lists the sample sizes of the relations a statement
// reads, as the response reports them.
func consumedSamples(poly algebra.Polynomial, syn *estimator.Synopsis) map[string]int {
	out := map[string]int{}
	for _, name := range poly.RelationNames() {
		n, _ := syn.SampleSize(name)
		out[name] = n
	}
	return out
}

// libraryResponse computes, by direct library calls, the response the
// service must return for a seed-pinned plain or sequential request.
func libraryResponse(ctx context.Context, syn *estimator.Synopsis, req server.EstimateRequest) (server.EstimateResponse, error) {
	mode := req.Mode
	if mode == "" {
		mode = "plain"
	}
	resp := server.EstimateResponse{Query: req.Query, Synopsis: req.Synopsis, Mode: mode}
	st, err := query.Parse(req.Query, synSchemas{syn})
	if err != nil {
		return resp, err
	}
	opts, err := libraryOptions(req)
	if err != nil {
		return resp, err
	}
	switch mode {
	case "plain":
		h, tiered, err := libraryHandle(syn, req, opts)
		if err != nil {
			return resp, err
		}
		var tier string
		if resp.Estimate, tier, err = plainEstimate(ctx, h, st); err != nil {
			return resp, err
		}
		if tiered {
			resp.Tier = tier
		}
		poly, err := algebra.Normalize(st.Expr)
		if err != nil {
			return resp, err
		}
		resp.SamplesConsumed = consumedSamples(poly, syn)
	case "sequential":
		target := req.TargetRelErr
		if target <= 0 {
			target = 0.05
		}
		// Sequential sampling extends samples in place; like the server, run
		// it on a private clone.
		res, err := estimator.SequentialCountContext(ctx, st.Expr, syn.Clone(), estimator.SequentialOptions{
			TargetRelErr: target, Confidence: req.Confidence, Estimate: opts, Seed: req.Seed,
		})
		if err != nil {
			return resp, err
		}
		pilot, met := wireResult(res.Pilot), res.TargetMet
		resp.Estimate, resp.Pilot, resp.TargetMet = wireResult(res.Final), &pilot, &met
		resp.SamplesConsumed = res.SampleSizes
	default:
		return resp, fmt.Errorf("mode %q has no seed-pinned answer", mode)
	}
	return resp, nil
}

// encodeBody encodes a response exactly as the service's writeJSON does.
func encodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func marshalRequest(req any) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	return body, nil
}

// libraryBody is libraryResponse encoded for byte comparison.
func libraryBody(ctx context.Context, syn *estimator.Synopsis, req server.EstimateRequest) ([]byte, error) {
	resp, err := libraryResponse(ctx, syn, req)
	if err != nil {
		return nil, fmt.Errorf("library answer for %q: %w", req.Query, err)
	}
	return encodeBody(resp)
}

// exactCount is the ground truth a deadline answer's CI is checked against.
func exactCount(m *mirror, queryText string) (float64, error) {
	cat := algebra.MapCatalog{}
	for _, r := range m.rels {
		cat[r.Name()] = r
	}
	st, err := query.Parse(queryText, query.CatalogSchemas{Cat: cat})
	if err != nil {
		return 0, err
	}
	n, err := algebra.Count(st.Expr, cat)
	return float64(n), err
}
