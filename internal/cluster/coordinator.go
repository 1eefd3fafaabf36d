package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"relest/internal/obs"
	"relest/internal/relation"
	"relest/internal/server"
	"relest/internal/workload"
)

// Config configures a Coordinator.
type Config struct {
	// Addr is the listen address (default 127.0.0.1:0).
	Addr string
	// ShardAddrs are the shard nodes' base URLs, one per shard, indexed
	// by shard id. Length must equal Spec.Shards.
	ShardAddrs []string
	// Spec fixes the shard partition.
	Spec ShardSpec
	// DefaultShardKey names the shard-key column used for relations
	// registered without an explicit ?shard_key (empty = first column).
	DefaultShardKey string
	// RequestTimeout caps each request's wall clock (default 30s). Shard
	// sub-requests get 90% of the remaining budget — the same margin
	// deadline-mode estimation keeps for assembling its response.
	RequestTimeout time.Duration
	// MaxBatchQueries caps batch sizes (default 256).
	MaxBatchQueries int
	// Collector receives the coordinator's metrics (default: a fresh
	// collector; never share one with a shard — the merged /metrics view
	// distinguishes shards by label instead).
	Collector *obs.Collector
	// Client is the HTTP client for shard calls (default
	// http.DefaultClient).
	Client *http.Client
}

// coordRel is the coordinator's source-of-truth record of one relation:
// the full relation plus its precomputed per-shard row slices, which
// synopsis allocation and rebalance pushes re-derive placements from.
type coordRel struct {
	rel         *relation.Relation
	keyCol      int
	rowsByShard [][]int
}

// coordSyn records a synopsis's creation spec: the client's request plus
// the exact per-shard requests pushed at creation. A rebalance replays
// perShard[s] verbatim on the target node, under the creating tenant, which
// rebuilds the shard's sample byte-identically (same slice, same derived
// seed) and keeps it on the same tenant's byte quota.
type coordSyn struct {
	kind     string
	tenant   string
	req      server.SynopsisRequest
	perShard []server.SynopsisRequest
}

// Coordinator is the cluster's front door: it owns the shard routing
// table and the source-of-truth dataset, fans estimation requests out to
// the shard nodes, and merges their partials into stratified cluster
// estimates.
type Coordinator struct {
	cfg      Config
	col      *obs.Collector
	httpSrv  *http.Server
	ln       net.Listener
	draining atomic.Bool

	mu      sync.RWMutex
	drivers []*workload.Driver
	rels    map[string]*coordRel
	syns    map[string]*coordSyn

	// regMu serializes registrations and rebalances, which push state to
	// shards outside mu.
	regMu sync.Mutex
}

// New builds a Coordinator; Start binds and serves.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.Spec.validate(); err != nil {
		return nil, err
	}
	if len(cfg.ShardAddrs) != cfg.Spec.Shards {
		return nil, fmt.Errorf("cluster: %d shard addrs for %d shards", len(cfg.ShardAddrs), cfg.Spec.Shards)
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBatchQueries <= 0 {
		cfg.MaxBatchQueries = 256
	}
	if cfg.Collector == nil {
		cfg.Collector = obs.NewCollector()
	}
	c := &Coordinator{
		cfg:  cfg,
		col:  cfg.Collector,
		rels: map[string]*coordRel{},
		syns: map[string]*coordSyn{},
	}
	for i, addr := range cfg.ShardAddrs {
		if addr == "" {
			return nil, fmt.Errorf("cluster: shard %d has an empty address", i)
		}
		c.drivers = append(c.drivers, c.newDriver(addr))
	}
	return c, nil
}

func (c *Coordinator) newDriver(addr string) *workload.Driver {
	return &workload.Driver{BaseURL: addr, Client: c.cfg.Client}
}

// Start binds the listener and serves in the background.
func (c *Coordinator) Start() error {
	ln, err := net.Listen("tcp", c.cfg.Addr)
	if err != nil {
		return err
	}
	c.ln = ln
	c.httpSrv = &http.Server{Handler: c.routes()}
	// The accept loop is request-level concurrency only: estimation work
	// happens on the shard nodes, whose reductions run through
	// internal/parallel as always.
	go func() {
		_ = c.httpSrv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound address, e.g. "127.0.0.1:43521".
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Handler exposes the routes without a listener (tests).
func (c *Coordinator) Handler() http.Handler { return c.routes() }

// Collector returns the coordinator's own metrics collector.
func (c *Coordinator) Collector() *obs.Collector { return c.col }

// Shutdown drains: new requests are refused while in-flight ones finish.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.draining.Store(true)
	if c.httpSrv == nil {
		return nil
	}
	return c.httpSrv.Shutdown(ctx)
}

// shardDrivers snapshots the routing table; rebalance swaps entries
// under mu, so fanouts work off a stable copy.
func (c *Coordinator) shardDrivers() []*workload.Driver {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*workload.Driver(nil), c.drivers...)
}

// callerTenant is the tenant header of an incoming request ("" when the
// caller sent none, which the shards account to their default tenant).
func callerTenant(r *http.Request) string { return r.Header.Get("X-Relest-Tenant") }

// forTenant returns a driver that reaches d's shard on behalf of tenant:
// the coordinator forwards the caller's tenant on everything a shard
// accounts per tenant (queue slots, synopsis bytes), or every tenant
// behind it would share the default tenant's quota. An empty tenant
// returns d itself.
func forTenant(d *workload.Driver, tenant string) *workload.Driver {
	if tenant == "" {
		return d
	}
	return &workload.Driver{BaseURL: d.BaseURL, Client: d.Client, Tenant: tenant}
}

func (c *Coordinator) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/relations/{name}", c.handleUploadRelation)
	mux.HandleFunc("GET /v1/relations", c.handleListRelations)
	mux.HandleFunc("POST /v1/generate", c.handleGenerate)
	mux.HandleFunc("POST /v1/synopses/{name}", c.handleCreateSynopsis)
	mux.HandleFunc("GET /v1/synopses", c.handleListSynopses)
	mux.HandleFunc("POST /v1/synopses/{name}/stream", c.handleStream)
	mux.HandleFunc("POST /v1/estimate", c.handleEstimate)
	mux.HandleFunc("POST /v1/estimate/batch", c.handleBatchEstimate)
	mux.HandleFunc("POST /v1/cluster/rebalance", c.handleRebalance)
	mux.HandleFunc("GET /v1/cluster", c.handleTopology)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	return mux
}

// handleUploadRelation registers the CSV body cluster-wide: the
// coordinator keeps the full relation as the rebalance source of truth
// and pushes each shard its slice, schema-pinned so every shard ends up
// with an identical layout.
func (c *Coordinator) handleUploadRelation(w http.ResponseWriter, r *http.Request) {
	if c.refuseDraining(w) {
		return
	}
	name := r.PathValue("name")
	if !server.ValidName(name) {
		_ = server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("invalid relation name %q", name))
		return
	}
	rel, err := relation.ImportCSVOptions(name, r.Body, relation.ImportOptions{MaxBytes: 64 << 20})
	if err != nil {
		_ = server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("importing CSV: %v", err))
		return
	}
	status, body := c.registerRelation(r.Context(), rel, r.URL.Query().Get("shard_key"))
	_ = server.WriteJSON(w, status, body)
}

// handleGenerate synthesizes a dataset exactly as a single node would
// (same generator, same seed discipline) and registers every output
// relation cluster-wide.
func (c *Coordinator) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if c.refuseDraining(w) {
		return
	}
	var req server.GenerateRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	outputs, err := server.GenerateDataset(req)
	if err != nil {
		_ = server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	infos := make([]server.RelationInfo, 0, len(outputs))
	var registered []string
	for _, rel := range outputs {
		status, body := c.registerRelation(r.Context(), rel, "")
		if status != http.StatusCreated {
			// Atomic generate: the outputs already committed (coordinator
			// registry and every shard) roll back, so a retry starts clean
			// instead of hitting 409s on the relations that made it.
			c.unregisterRelations(registered)
			_ = server.WriteJSON(w, status, body)
			return
		}
		info, ok := body.(server.RelationInfo)
		if !ok {
			c.unregisterRelations(registered)
			_ = server.WriteError(w, http.StatusInternalServerError, "internal: unexpected registration body shape")
			return
		}
		registered = append(registered, rel.Name())
		infos = append(infos, info)
	}
	_ = server.WriteJSON(w, http.StatusCreated, infos)
}

// unregisterRelations best-effort removes fully registered relations —
// a failed generate's earlier outputs — from the coordinator registry
// and every shard. A relation some synopsis already references is left
// in place (the shard nodes refuse that delete too); regMu serializes
// the removal against concurrent registrations and rebalances, which
// read the registry while pushing to shards.
func (c *Coordinator) unregisterRelations(names []string) {
	if len(names) == 0 {
		return
	}
	c.regMu.Lock()
	defer c.regMu.Unlock()
	c.mu.Lock()
	drivers := append([]*workload.Driver(nil), c.drivers...)
	removed := names[:0:0]
	for _, name := range names {
		referenced := false
		for _, syn := range c.syns {
			if _, uses := syn.req.Relations[name]; uses {
				referenced = true
				break
			}
		}
		if !referenced {
			delete(c.rels, name)
			removed = append(removed, name)
		}
	}
	c.mu.Unlock()
	for _, name := range removed {
		c.rollbackPush(drivers, "/v1/relations/"+url.PathEscape(name))
	}
}

// registerRelation slices rel by the shard spec, pushes each shard its
// slice, and commits the relation to the routing registry.
func (c *Coordinator) registerRelation(ctx context.Context, rel *relation.Relation, keyName string) (int, any) {
	if keyName == "" {
		keyName = c.cfg.DefaultShardKey
	}
	keyCol := 0
	if keyName != "" {
		if keyCol = rel.Schema().ColumnIndex(keyName); keyCol < 0 {
			return http.StatusBadRequest, server.ErrorResponse{Error: fmt.Sprintf("relation %q has no shard-key column %q", rel.Name(), keyName)}
		}
	}
	if c.cfg.Spec.Mode == ModeRange && rel.Schema().Column(keyCol).Kind != relation.KindInt {
		return http.StatusBadRequest, server.ErrorResponse{Error: fmt.Sprintf("range sharding needs an int shard key; %q column %q is %s", rel.Name(), rel.Schema().Column(keyCol).Name, rel.Schema().Column(keyCol).Kind)}
	}

	c.regMu.Lock()
	defer c.regMu.Unlock()
	c.mu.RLock()
	_, dup := c.rels[rel.Name()]
	drivers := append([]*workload.Driver(nil), c.drivers...)
	c.mu.RUnlock()
	if dup {
		return http.StatusConflict, server.ErrorResponse{Error: fmt.Sprintf("relation %q already registered", rel.Name())}
	}

	rowsByShard := make([][]int, c.cfg.Spec.Shards)
	for s := range rowsByShard {
		rows, err := sliceRows(rel, keyCol, c.cfg.Spec, s)
		if err != nil {
			return http.StatusBadRequest, server.ErrorResponse{Error: err.Error()}
		}
		rowsByShard[s] = rows
	}
	for s, d := range drivers {
		if status, msg := pushSlice(ctx, d, rel, rowsByShard[s]); status != http.StatusCreated {
			c.rollbackPush(drivers[:s], "/v1/relations/"+url.PathEscape(rel.Name()))
			return http.StatusBadGateway, server.ErrorResponse{Error: fmt.Sprintf("shard %d refused slice of %q: %s", s, rel.Name(), msg)}
		}
	}

	c.mu.Lock()
	c.rels[rel.Name()] = &coordRel{rel: rel, keyCol: keyCol, rowsByShard: rowsByShard}
	c.mu.Unlock()
	return http.StatusCreated, server.RelationInfo{Name: rel.Name(), Rows: rel.Len(), Schema: rel.Schema().String()}
}

// rollbackPush best-effort DELETEs path from the shards that accepted a
// fanned-out registration before a later shard refused it, so a failed
// registration leaves no partial state behind and a client retry is not
// wedged on 409s from the half-populated shards. It runs on its own
// short background context — the request's context may be the very thing
// that failed the fanout — and swallows per-shard errors: a shard that
// cannot clean up now surfaces as a 409 on the retry, which the operator
// would have to resolve either way.
func (c *Coordinator) rollbackPush(drivers []*workload.Driver, path string) {
	if len(drivers) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, d := range drivers {
		_, _, _ = d.Delete(ctx, path)
	}
}

// pushSlice uploads one shard's slice of rel, schema-pinned.
func pushSlice(ctx context.Context, d *workload.Driver, rel *relation.Relation, rows []int) (int, string) {
	slice := rel.Subset(rel.Name(), rows)
	var buf bytes.Buffer
	if err := relation.ExportCSV(slice, &buf); err != nil {
		return 0, err.Error()
	}
	path := "/v1/relations/" + url.PathEscape(rel.Name()) + "?schema=" + url.QueryEscape(rel.Schema().String())
	status, raw, err := d.DoRaw(ctx, path, "text/csv", buf.Bytes())
	if err != nil {
		return status, err.Error()
	}
	if status != http.StatusCreated {
		return status, string(raw)
	}
	return status, ""
}

func (c *Coordinator) handleListRelations(w http.ResponseWriter, r *http.Request) {
	c.mu.RLock()
	infos := make([]server.RelationInfo, 0, len(c.rels))
	for name, cr := range c.rels {
		infos = append(infos, server.RelationInfo{Name: name, Rows: cr.rel.Len(), Schema: cr.rel.Schema().String()})
	}
	c.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	_ = server.WriteJSON(w, http.StatusOK, infos)
}

// handleCreateSynopsis fans a synopsis creation out: each shard draws its
// own slice's sample with a shard-derived seed and a proportional share
// of the requested sample size, so the shard samples together form a
// stratified design over the whole relation.
func (c *Coordinator) handleCreateSynopsis(w http.ResponseWriter, r *http.Request) {
	if c.refuseDraining(w) {
		return
	}
	var req server.SynopsisRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	status, body := c.createSynopsis(r.Context(), r.PathValue("name"), callerTenant(r), req)
	_ = server.WriteJSON(w, status, body)
}

// createSynopsis validates the request exactly as a node does
// (server.ValidateSynopsis, against the coordinator's routing table), then
// pushes each shard its share. The answer merges the shards' own 201
// bodies, so at shards=1 it is the node's body byte for byte.
func (c *Coordinator) createSynopsis(ctx context.Context, name, tenant string, req server.SynopsisRequest) (int, any) {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	c.mu.RLock()
	req, err := server.ValidateSynopsis(name, req, func(rel string) bool { return c.rels[rel] != nil })
	_, dup := c.syns[name]
	drivers := append([]*workload.Driver(nil), c.drivers...)
	relNames := make([]string, 0, len(req.Relations))
	rels := map[string]*coordRel{}
	for rn := range req.Relations {
		relNames = append(relNames, rn)
		rels[rn] = c.rels[rn]
	}
	c.mu.RUnlock()
	if err != nil {
		return http.StatusBadRequest, server.ErrorResponse{Error: err.Error()}
	}
	if dup {
		return http.StatusBadRequest, server.ErrorResponse{Error: fmt.Sprintf("synopsis %q already exists", name)}
	}
	sort.Strings(relNames)

	perShard := make([]server.SynopsisRequest, c.cfg.Spec.Shards)
	for s := range perShard {
		sreq := server.SynopsisRequest{Kind: req.Kind, Relations: map[string]int{}, Seed: shardSeed(req.Seed, s)}
		if req.Kind == "incremental" {
			cap := req.Capacity
			if cap <= 0 {
				cap = 1000
			}
			sreq.Capacity = max(1, cap/c.cfg.Spec.Shards)
			for _, rn := range relNames {
				sreq.Relations[rn] = 0
			}
		} else {
			for _, rn := range relNames {
				sizes := make([]int, c.cfg.Spec.Shards)
				for i, rows := range rels[rn].rowsByShard {
					sizes[i] = len(rows)
				}
				sreq.Relations[rn] = proportionalAlloc(sizes, req.Relations[rn])[s]
			}
		}
		perShard[s] = sreq
	}
	info := server.SynopsisInfo{Name: name, Relations: map[string]int{}}
	for s, d := range drivers {
		status, raw, err := forTenant(d, tenant).DoRetry(ctx, "/v1/synopses/"+url.PathEscape(name), perShard[s])
		if err != nil {
			c.rollbackPush(drivers[:s], "/v1/synopses/"+url.PathEscape(name))
			return http.StatusBadGateway, server.ErrorResponse{Error: fmt.Sprintf("shard %d synopsis push: %v", s, err)}
		}
		if status != http.StatusCreated {
			c.rollbackPush(drivers[:s], "/v1/synopses/"+url.PathEscape(name))
			return http.StatusBadGateway, server.ErrorResponse{Error: fmt.Sprintf("shard %d refused synopsis %q: %s", s, name, raw)}
		}
		var shardInfo server.SynopsisInfo
		if err := json.Unmarshal(raw, &shardInfo); err != nil {
			c.rollbackPush(drivers[:s+1], "/v1/synopses/"+url.PathEscape(name))
			return http.StatusBadGateway, server.ErrorResponse{Error: fmt.Sprintf("shard %d synopsis push: %v", s, err)}
		}
		info.Kind, info.Tenant = shardInfo.Kind, shardInfo.Tenant
		for rn, n := range shardInfo.Relations {
			info.Relations[rn] += n
		}
	}

	c.mu.Lock()
	c.syns[name] = &coordSyn{kind: req.Kind, tenant: tenant, req: req, perShard: perShard}
	c.mu.Unlock()
	return http.StatusCreated, info
}

// proportionalAlloc splits a total sample size across shard strata in
// proportion to slice sizes (largest-remainder rounding, deterministic
// ties by shard index), with a floor of one row per shard — shard nodes
// refuse zero-size draws, and they clamp an over-ask on an empty slice to
// an empty (census) sample themselves.
func proportionalAlloc(sizes []int, total int) []int {
	n := 0
	for _, s := range sizes {
		n += s
	}
	out := make([]int, len(sizes))
	if n == 0 {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	type rem struct {
		idx  int
		frac int
	}
	rems := make([]rem, len(sizes))
	used := 0
	for i, s := range sizes {
		out[i] = total * s / n
		rems[i] = rem{idx: i, frac: total * s % n}
		used += out[i]
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].idx < rems[j].idx
	})
	for k := 0; used < total && k < len(rems); k++ {
		out[rems[k].idx]++
		used++
	}
	for i := range out {
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

// handleListSynopses merges the shards' synopsis listings: per-relation
// sample sizes sum across shards, and an eviction anywhere is surfaced.
func (c *Coordinator) handleListSynopses(w http.ResponseWriter, r *http.Request) {
	drivers := c.shardDrivers()
	merged := map[string]*server.SynopsisInfo{}
	for s, d := range drivers {
		status, raw, err := d.Get(r.Context(), "/v1/synopses")
		if err != nil || status != http.StatusOK {
			_ = server.WriteError(w, http.StatusBadGateway, fmt.Sprintf("shard %d synopsis listing failed", s))
			return
		}
		var infos []server.SynopsisInfo
		if err := json.Unmarshal(raw, &infos); err != nil {
			_ = server.WriteError(w, http.StatusBadGateway, fmt.Sprintf("shard %d synopsis listing: %v", s, err))
			return
		}
		for _, info := range infos {
			m := merged[info.Name]
			if m == nil {
				m = &server.SynopsisInfo{Name: info.Name, Kind: info.Kind, Tenant: info.Tenant, Relations: map[string]int{}}
				merged[info.Name] = m
			}
			for rn, sz := range info.Relations {
				m.Relations[rn] += sz
			}
			m.Evicted = m.Evicted || info.Evicted
		}
	}
	out := make([]server.SynopsisInfo, 0, len(merged))
	for _, m := range merged {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	_ = server.WriteJSON(w, http.StatusOK, out)
}

// handleStream routes one insert/delete event to the shard owning the
// tuple's key and forwards it; the response is the owning shard's view of
// the synopsis.
func (c *Coordinator) handleStream(w http.ResponseWriter, r *http.Request) {
	// Stream events mutate shard reservoirs; the drain contract refuses
	// them like every other mutating endpoint.
	if c.refuseDraining(w) {
		return
	}
	name := r.PathValue("name")
	var req server.StreamRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	c.mu.RLock()
	syn := c.syns[name]
	cr := c.rels[req.Relation]
	c.mu.RUnlock()
	if syn == nil {
		_ = server.WriteError(w, http.StatusNotFound, fmt.Sprintf("no synopsis %q", name))
		return
	}
	if cr == nil {
		_ = server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("no relation %q registered", req.Relation))
		return
	}
	if cr.keyCol >= len(req.Tuple) {
		_ = server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("tuple has %d values; shard key is column %d", len(req.Tuple), cr.keyCol))
		return
	}
	v, err := relation.ParseValue(req.Tuple[cr.keyCol], cr.rel.Schema().Column(cr.keyCol).Kind)
	if err != nil {
		_ = server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("parsing shard key: %v", err))
		return
	}
	shard, err := c.cfg.Spec.Route(v)
	if err != nil {
		_ = server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	status, raw, err := forTenant(c.shardDrivers()[shard], callerTenant(r)).DoRetry(r.Context(), "/v1/synopses/"+url.PathEscape(name)+"/stream", req)
	if err != nil {
		_ = server.WriteError(w, http.StatusBadGateway, fmt.Sprintf("shard %d stream: %v", shard, err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(raw)
}

// RebalanceRequest moves one shard's data to another node.
type RebalanceRequest struct {
	// Shard is the shard id to move.
	Shard int `json:"shard"`
	// Addr is the target node's base URL. The target must be empty of
	// this cluster's relations (a fresh relestd).
	Addr string `json:"addr"`
}

// RebalanceResponse summarizes a completed move.
type RebalanceResponse struct {
	Shard     int    `json:"shard"`
	Addr      string `json:"addr"`
	Relations int    `json:"relations"`
	Synopses  int    `json:"synopses"`
}

// handleRebalance moves a shard to another node: the coordinator pushes
// the shard's relation slices and replays its synopsis specs (same
// derived seeds, so static samples rebuild byte-identically), then flips
// the routing table. The old node is simply dropped from routing;
// decommissioning it is the operator's business. Clusters with
// incremental synopses refuse to rebalance — a reservoir's state lives in
// its event history, which a spec replay cannot reproduce.
func (c *Coordinator) handleRebalance(w http.ResponseWriter, r *http.Request) {
	if c.refuseDraining(w) {
		return
	}
	var req RebalanceRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	if req.Shard < 0 || req.Shard >= c.cfg.Spec.Shards {
		_ = server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("shard %d outside [0, %d)", req.Shard, c.cfg.Spec.Shards))
		return
	}
	if req.Addr == "" {
		_ = server.WriteError(w, http.StatusBadRequest, "rebalance needs a target addr")
		return
	}

	c.regMu.Lock()
	defer c.regMu.Unlock()
	c.mu.RLock()
	relNames := make([]string, 0, len(c.rels))
	for n := range c.rels {
		relNames = append(relNames, n)
	}
	synNames := make([]string, 0, len(c.syns))
	for n, s := range c.syns {
		if s.kind == "incremental" {
			c.mu.RUnlock()
			_ = server.WriteError(w, http.StatusConflict, fmt.Sprintf("synopsis %q is incremental; its reservoir state cannot be rebuilt from its spec on another node", n))
			return
		}
		synNames = append(synNames, n)
	}
	c.mu.RUnlock()
	sort.Strings(relNames)
	sort.Strings(synNames)

	// On a failed push the target is scrubbed of everything already moved
	// (synopses first — they pin their base relations), so a retried
	// rebalance against the same node starts clean instead of 409ing.
	target := c.newDriver(req.Addr)
	var movedRels, movedSyns []string
	scrubTarget := func() {
		for i := len(movedSyns) - 1; i >= 0; i-- {
			c.rollbackPush([]*workload.Driver{target}, "/v1/synopses/"+url.PathEscape(movedSyns[i]))
		}
		for i := len(movedRels) - 1; i >= 0; i-- {
			c.rollbackPush([]*workload.Driver{target}, "/v1/relations/"+url.PathEscape(movedRels[i]))
		}
	}
	for _, rn := range relNames {
		c.mu.RLock()
		cr := c.rels[rn]
		c.mu.RUnlock()
		if status, msg := pushSlice(r.Context(), target, cr.rel, cr.rowsByShard[req.Shard]); status != http.StatusCreated {
			scrubTarget()
			_ = server.WriteError(w, http.StatusBadGateway, fmt.Sprintf("target refused slice of %q: %s", rn, msg))
			return
		}
		movedRels = append(movedRels, rn)
	}
	for _, sn := range synNames {
		c.mu.RLock()
		syn := c.syns[sn]
		c.mu.RUnlock()
		status, raw, err := forTenant(target, syn.tenant).DoRetry(r.Context(), "/v1/synopses/"+url.PathEscape(sn), syn.perShard[req.Shard])
		if err != nil {
			scrubTarget()
			_ = server.WriteError(w, http.StatusBadGateway, fmt.Sprintf("target synopsis push %q: %v", sn, err))
			return
		}
		if status != http.StatusCreated {
			scrubTarget()
			_ = server.WriteError(w, http.StatusBadGateway, fmt.Sprintf("target refused synopsis %q: %s", sn, raw))
			return
		}
		movedSyns = append(movedSyns, sn)
	}

	c.mu.Lock()
	c.drivers[req.Shard] = target
	c.mu.Unlock()
	c.col.Add(mRebalance, 1)
	_ = server.WriteJSON(w, http.StatusOK, RebalanceResponse{Shard: req.Shard, Addr: req.Addr, Relations: len(relNames), Synopses: len(synNames)})
}

// TopologyResponse is the body of GET /v1/cluster.
type TopologyResponse struct {
	Shards int      `json:"shards"`
	Mode   string   `json:"mode"`
	Addrs  []string `json:"addrs"`
	// ShardKeys maps each registered relation to its shard-key column.
	ShardKeys map[string]string `json:"shard_keys"`
}

func (c *Coordinator) handleTopology(w http.ResponseWriter, r *http.Request) {
	mode := c.cfg.Spec.Mode
	if mode == "" {
		mode = ModeHash
	}
	resp := TopologyResponse{Shards: c.cfg.Spec.Shards, Mode: mode, ShardKeys: map[string]string{}}
	c.mu.RLock()
	for _, d := range c.drivers {
		resp.Addrs = append(resp.Addrs, d.BaseURL)
	}
	for n, cr := range c.rels {
		resp.ShardKeys[n] = cr.rel.Schema().Column(cr.keyCol).Name
	}
	c.mu.RUnlock()
	_ = server.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_ = server.WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"role":     "coordinator",
		"shards":   c.cfg.Spec.Shards,
		"draining": c.draining.Load(),
	})
}

// refuseDraining answers 503 during drain; estimation and registration
// endpoints call it first.
func (c *Coordinator) refuseDraining(w http.ResponseWriter) bool {
	if c.draining.Load() {
		_ = server.WriteError(w, http.StatusServiceUnavailable, "coordinator is draining")
		return true
	}
	return false
}
