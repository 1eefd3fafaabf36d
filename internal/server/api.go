// Package server implements relestd, the estimation daemon: an HTTP
// facade over the estimator library that registers relations, maintains
// named synopses (static draws and incrementally-maintained samples), and
// serves estimation requests with admission control, per-request
// deadlines, and graceful drain.
//
// The service preserves the library's determinism contract end to end: a
// seed-pinned request returns byte-identical JSON whether the estimate is
// computed here or by calling the library directly, for every worker
// count. Request-level concurrency (the accept loop and the bounded
// worker pool in this package) never touches estimate reductions, which
// still run exclusively through internal/parallel.
package server

import (
	"encoding/json"
	"net/http"
)

// GenerateRequest asks the daemon to synthesize and register a dataset,
// mirroring cmd/relgen's kinds. Every dataset is deterministic for a
// given seed.
type GenerateRequest struct {
	// Kind selects the generator: "zipf-pair", "clustered" or "company".
	Kind string `json:"kind"`
	// N is the tuple count per relation (default 10000).
	N int `json:"n,omitempty"`
	// Domain is the join attribute domain size (default 1000).
	Domain int `json:"domain,omitempty"`
	// Z1, Z2 are the zipf-pair skews (defaults 0.5, 1.0).
	Z1 float64 `json:"z1,omitempty"`
	Z2 float64 `json:"z2,omitempty"`
	// Correlation is "positive", "independent" (default) or "negative".
	Correlation string `json:"correlation,omitempty"`
	// Smooth selects the orderly rank→value mapping for zipf-pair.
	Smooth bool `json:"smooth,omitempty"`
	// Regions is the cluster count for "clustered" (default 10).
	Regions int `json:"regions,omitempty"`
	// Departments is the department count for "company" (default 25).
	Departments int `json:"departments,omitempty"`
	// Seed drives the generator.
	Seed int64 `json:"seed,omitempty"`
}

// RelationInfo describes one registered relation.
type RelationInfo struct {
	Name   string `json:"name"`
	Rows   int    `json:"rows"`
	Schema string `json:"schema"`
}

// SynopsisRequest creates a named synopsis over registered relations.
type SynopsisRequest struct {
	// Kind is "static" (a one-shot SRSWOR draw that later sequential and
	// deadline estimates may extend) or "incremental" (bounded samples
	// maintained under an insert/delete stream).
	Kind string `json:"kind"`
	// Relations maps relation name → sample size (static) or is the list
	// of tracked relations with Capacity bounding each sample
	// (incremental; sizes in the map are ignored).
	Relations map[string]int `json:"relations"`
	// Seed drives the draw / reservoir decisions. Draws iterate relations
	// in sorted-name order, so a seed pins the synopsis exactly.
	Seed int64 `json:"seed,omitempty"`
	// Capacity is the per-relation sample bound for incremental synopses
	// (default 1000).
	Capacity int `json:"capacity,omitempty"`
}

// SynopsisInfo describes one named synopsis.
type SynopsisInfo struct {
	Name      string         `json:"name"`
	Kind      string         `json:"kind"`
	Tenant    string         `json:"tenant,omitempty"`
	Relations map[string]int `json:"relations"` // name → current sample size
	// Evicted reports that the synopsis's sample is currently dropped
	// under the byte budget; the next estimate referencing it rebuilds it
	// transparently from its creation spec (byte-identical redraw).
	Evicted bool `json:"evicted,omitempty"`
}

// StreamRequest feeds one insert or delete event to an incremental
// synopsis. Tuple values arrive as strings and are parsed against the
// tracked relation's schema ("" = NULL).
type StreamRequest struct {
	Op       string   `json:"op"` // "insert" or "delete"
	Relation string   `json:"relation"`
	Tuple    []string `json:"tuple"`
}

// EstimateRequest is the body of POST /v1/estimate.
type EstimateRequest struct {
	// Query in the internal/query language, bound against the synopsis's
	// relation schemas, e.g. "count(join(R1, R2, on a = a))".
	Query string `json:"query"`
	// Synopsis names the synopsis to estimate from.
	Synopsis string `json:"synopsis"`
	// Mode is "plain" (default), "sequential" (double sampling to a
	// target relative error) or "deadline" (grow samples until the budget
	// expires). Sequential and deadline run on a private clone of a
	// static synopsis; incremental synopses support plain mode only.
	Mode string `json:"mode,omitempty"`
	// Seed pins the request's randomness (split-sample grouping and, for
	// sequential/deadline, the sample extensions).
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds the evaluation parallelism (0 = server default).
	// Estimates are bit-identical for every setting.
	Workers int `json:"workers,omitempty"`
	// Variance is "auto" (default), "none", "analytic", "split-sample" or
	// "jackknife".
	Variance string `json:"variance,omitempty"`
	// Confidence is the CI level (default 0.95).
	Confidence float64 `json:"confidence,omitempty"`
	// TargetRelErr is the sequential-mode goal (e.g. 0.05 for ±5%).
	TargetRelErr float64 `json:"target_rel_err,omitempty"`
	// BudgetMS is the deadline-mode sampling budget in milliseconds. When
	// zero, the budget is derived from the request deadline: 90% of the
	// time remaining when estimation starts.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// TimeoutMS caps this request's wall-clock time; 0 uses the server
	// default, and values above the server maximum are clamped to it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// TierPolicy selects the synopsis tiers a plain count query may use:
	// "auto" (sketch first, escalate per term), "sketch" (sketch only,
	// 422 when a term cannot be answered) or "sample" (the exact legacy
	// path, the default). Setting it (or Precision) routes the query
	// through the tier planner and fills the response's Tier field.
	TierPolicy string `json:"tier_policy,omitempty"`
	// Precision is the target relative CI half-width under which a
	// sketch-tier answer is accepted (default 0.1). Setting it implies
	// tier_policy "auto" unless one is given.
	Precision float64 `json:"precision,omitempty"`
}

// EstimateResult is the JSON shape of one estimate. Variance is a pointer
// because the library reports "no variance" as NaN, which JSON cannot
// encode; absent means no variance method applied.
type EstimateResult struct {
	Value          float64  `json:"value"`
	Variance       *float64 `json:"variance,omitempty"`
	StdErr         float64  `json:"std_err"`
	Lo             float64  `json:"lo"`
	Hi             float64  `json:"hi"`
	Confidence     float64  `json:"confidence"`
	VarianceMethod string   `json:"variance_method"`
	Terms          int      `json:"terms"`
}

// EstimateResponse is the body of a successful POST /v1/estimate. It
// carries no wall-clock fields: for a pinned seed the entire body is
// reproducible byte for byte, which the golden tests rely on.
type EstimateResponse struct {
	Query    string         `json:"query"`
	Synopsis string         `json:"synopsis"`
	Mode     string         `json:"mode"`
	Estimate EstimateResult `json:"estimate"`
	// SamplesConsumed is the per-relation sample size the final estimate
	// was computed from.
	SamplesConsumed map[string]int `json:"samples_consumed"`
	// Pilot and TargetMet are set in sequential mode.
	Pilot     *EstimateResult `json:"pilot,omitempty"`
	TargetMet *bool           `json:"target_met,omitempty"`
	// Rounds is the number of estimation rounds completed (deadline mode).
	Rounds int `json:"rounds,omitempty"`
	// Tier reports which synopsis tier(s) answered a tier-routed plain
	// count query: "sketch", "sample" or "mixed". Absent on legacy
	// requests (no tier_policy/precision), whose bodies stay byte-
	// identical to earlier releases.
	Tier string `json:"tier,omitempty"`
}

// BatchEstimateRequest is the body of POST /v1/estimate/batch: many
// estimation queries admitted as one task — one queue slot, one tenant
// slot, one worker — and answered item by item exactly as the singleton
// endpoint would answer each.
type BatchEstimateRequest struct {
	Queries []EstimateRequest `json:"queries"`
	// TimeoutMS caps the whole batch's wall-clock time; 0 uses the server
	// default, and values above the server maximum are clamped to it.
	// Individual queries may set their own (smaller) TimeoutMS too.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchItemResult is one query's outcome inside a batch response. Exactly
// one of Estimate/Error is set, mirroring the singleton endpoint's bodies;
// Status is the HTTP status the query would have received on its own.
type BatchItemResult struct {
	Status   int               `json:"status"`
	Estimate *EstimateResponse `json:"estimate,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// BatchEstimateResponse is the body of POST /v1/estimate/batch. The
// request itself answers 200 whenever the batch ran (partial success is
// the contract); per-item failures live in Results.
type BatchEstimateResponse struct {
	Results   []BatchItemResult `json:"results"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
}

// DeleteResponse is the body of DELETE /v1/relations/{name} and
// DELETE /v1/synopses/{name}.
type DeleteResponse struct {
	Deleted string `json:"deleted"`
}

// SnapshotResponse is the body of POST /v1/snapshot.
type SnapshotResponse struct {
	Dir       string `json:"dir"`
	Relations int    `json:"relations"`
	Synopses  int    `json:"synopses"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteJSON writes v with the given status. Encoding failures past the
// header cannot be reported to the client; they surface in the server
// error metric instead of an error return. The sharded coordinator writes
// through it too: its shards=1 byte-identity with a single node covers the
// framing (SetEscapeHTML(false), Encode's trailing newline), not just the
// numbers.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// WriteError writes a JSON error body with the given status.
func WriteError(w http.ResponseWriter, status int, msg string) error {
	return WriteJSON(w, status, ErrorResponse{Error: msg})
}
