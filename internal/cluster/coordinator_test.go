package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"relest/internal/server"
)

// startCluster boots an in-process cluster and tears it down with the
// test.
func startCluster(t *testing.T, cfg HarnessConfig) (*Harness, string) {
	t.Helper()
	h, err := StartHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := h.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return h, "http://" + h.Addr()
}

func postJSON(t testing.TB, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("closing body: %v", err)
		}
	}()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("closing body: %v", err)
		}
	}()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// setupClusterDataset registers the golden zipf-pair dataset and "main"
// synopsis through the coordinator.
func setupClusterDataset(t *testing.T, base string, n, sample int) {
	t.Helper()
	status, body := postJSON(t, base+"/v1/generate", server.GenerateRequest{
		Kind: "zipf-pair", N: n, Domain: 200, Seed: 7,
	})
	if status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, body)
	}
	status, body = postJSON(t, base+"/v1/synopses/main", server.SynopsisRequest{
		Kind: "static", Relations: map[string]int{"R1": sample, "R2": sample}, Seed: 9,
	})
	if status != http.StatusCreated {
		t.Fatalf("create synopsis: %d %s", status, body)
	}
}

func counterValue(t *testing.T, h *Harness, shard int, name string) float64 {
	t.Helper()
	return h.Shards[shard].Collector().Metrics().Counter(name).Value()
}

// TestShardFanout is the tentpole's happy path: a two-shard cluster
// answers a co-partitioned join estimate by scatter-gather, one
// sub-request per shard, and the merged estimate is a plausible count
// with a finite CI.
func TestShardFanout(t *testing.T) {
	h, base := startCluster(t, HarnessConfig{Shards: 2})
	setupClusterDataset(t, base, 2000, 200)

	status, raw := postJSON(t, base+"/v1/estimate", server.EstimateRequest{
		Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Seed: 3,
	})
	if status != http.StatusOK {
		t.Fatalf("estimate: %d %s", status, raw)
	}
	var resp EstimateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	if resp.Partial || len(resp.ShardsMissed) != 0 {
		t.Errorf("healthy cluster answered partial=%v missed=%v", resp.Partial, resp.ShardsMissed)
	}
	if resp.Estimate.Value <= 0 {
		t.Errorf("estimate value = %v", resp.Estimate.Value)
	}
	if !(resp.Estimate.Lo <= resp.Estimate.Value && resp.Estimate.Value <= resp.Estimate.Hi) {
		t.Errorf("CI [%v, %v] does not bracket the estimate %v", resp.Estimate.Lo, resp.Estimate.Hi, resp.Estimate.Value)
	}
	// Both shards drew samples: the merged consumption is split across
	// their slices and sums to roughly the ask.
	if got := resp.SamplesConsumed["R1"]; got < 190 || got > 210 {
		t.Errorf("merged R1 samples = %d, want about 200", got)
	}

	if got := h.Coord.Collector().Metrics().Counter(mFanout).Value(); got != 2 {
		t.Errorf("%s = %v, want 2 (one sub-request per shard)", mFanout, got)
	}
	for s := 0; s < 2; s++ {
		if got := counterValue(t, h, s, `relestd_requests_total{code="200"}`); got < 1 {
			t.Errorf("shard %d served %v estimates, want >= 1", s, got)
		}
	}

	// Repeating the request reproduces the bytes: the fanout-and-merge
	// path is deterministic for a pinned seed.
	status2, raw2 := postJSON(t, base+"/v1/estimate", server.EstimateRequest{
		Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Seed: 3,
	})
	if status2 != http.StatusOK || !bytes.Equal(raw, raw2) {
		t.Errorf("repeat estimate differs:\n%s\nvs\n%s", raw, raw2)
	}

	// Topology and health reporting.
	status, raw = getBody(t, base+"/v1/cluster")
	if status != http.StatusOK {
		t.Fatalf("topology: %d %s", status, raw)
	}
	var topo TopologyResponse
	if err := json.Unmarshal(raw, &topo); err != nil {
		t.Fatal(err)
	}
	if topo.Shards != 2 || topo.Mode != ModeHash || len(topo.Addrs) != 2 {
		t.Errorf("topology = %+v", topo)
	}
	if topo.ShardKeys["R1"] != "a" {
		t.Errorf("R1 shard key = %q, want the first column a", topo.ShardKeys["R1"])
	}
	status, raw = getBody(t, base+"/healthz")
	if status != http.StatusOK || !strings.Contains(string(raw), `"role":"coordinator"`) {
		t.Errorf("healthz: %d %s", status, raw)
	}
}

// TestShardEstimateRejections pins the coordinator's refusal contract:
// non-plain modes and queries that do not decompose over the shard
// partition are refused outright — never silently wrong numbers.
func TestShardEstimateRejections(t *testing.T) {
	_, base := startCluster(t, HarnessConfig{Shards: 2})

	// Two-column relations joined off the shard key.
	for _, name := range []string{"T1", "T2"} {
		resp, err := http.Post(base+"/v1/relations/"+name, "text/csv",
			strings.NewReader("a,b\n1,10\n2,20\n3,30\n4,40\n"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: %d", name, resp.StatusCode)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}
	status, raw := postJSON(t, base+"/v1/synopses/t", server.SynopsisRequest{
		Kind: "static", Relations: map[string]int{"T1": 4, "T2": 4}, Seed: 1,
	})
	if status != http.StatusCreated {
		t.Fatalf("synopsis: %d %s", status, raw)
	}

	status, raw = postJSON(t, base+"/v1/estimate", server.EstimateRequest{
		Query: "count(join(T1, T2, on b = b))", Synopsis: "t", Seed: 1,
	})
	if status != http.StatusUnprocessableEntity {
		t.Errorf("off-key join: %d %s, want 422", status, raw)
	}
	if !strings.Contains(string(raw), "not shardable") {
		t.Errorf("off-key join error does not explain shardability: %s", raw)
	}

	status, raw = postJSON(t, base+"/v1/estimate", server.EstimateRequest{
		Query: "count(join(T1, T2, on a = a))", Synopsis: "t", Mode: "sequential", Seed: 1,
	})
	if status != http.StatusBadRequest || !strings.Contains(string(raw), "plain mode only") {
		t.Errorf("sequential mode: %d %s, want a 400 naming the plain-only contract", status, raw)
	}

	status, raw = postJSON(t, base+"/v1/estimate", server.EstimateRequest{
		Query: "count(join(T1, T2, on a = a))", Synopsis: "nope", Seed: 1,
	})
	if status != http.StatusNotFound {
		t.Errorf("unknown synopsis: %d %s, want 404", status, raw)
	}
}

// TestShardDeadlineMiss wedges one shard behind a delaying proxy and pins
// the degradation contract: the coordinator answers 200 with
// partial: true, names the missed shard, scales the answered strata up,
// and widens the CI — it never serves the partial sum as if it were the
// whole cluster.
func TestShardDeadlineMiss(t *testing.T) {
	// Two stock shard nodes.
	var shards []*server.Server
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{Addr: "127.0.0.1:0"})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
		shards = append(shards, s)
	}

	// Shard 1 sits behind a proxy that delays only estimation calls, so
	// registration flows freely but estimates overrun the shard budget.
	target, err := url.Parse("http://" + shards[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	// The coordinator cancels the in-flight sub-request when the shard
	// budget expires; that cancellation is the point, not log noise.
	proxy.ErrorLog = log.New(io.Discard, "", 0)
	delay := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/estimate" {
			time.Sleep(600 * time.Millisecond)
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(delay.Close)

	coord, err := New(Config{
		ShardAddrs: []string{"http://" + shards[0].Addr(), delay.URL},
		Spec:       ShardSpec{Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx)
	})
	base := "http://" + coord.Addr()
	setupClusterDataset(t, base, 2000, 200)

	req := server.EstimateRequest{
		Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Seed: 3,
	}

	// Generous budget: both shards answer, full-cluster estimate.
	status, raw := postJSON(t, base+"/v1/estimate", req)
	if status != http.StatusOK {
		t.Fatalf("full estimate: %d %s", status, raw)
	}
	var full EstimateResponse
	if err := json.Unmarshal(raw, &full); err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Fatalf("600ms delay beat the 30s default budget: %s", raw)
	}

	// Tight budget: shard 1 cannot answer inside 90% of 300ms.
	req.TimeoutMS = 300
	status, raw = postJSON(t, base+"/v1/estimate", req)
	if status != http.StatusOK {
		t.Fatalf("degraded estimate: %d %s", status, raw)
	}
	var part EstimateResponse
	if err := json.Unmarshal(raw, &part); err != nil {
		t.Fatal(err)
	}
	if !part.Partial {
		t.Fatalf("slow shard did not degrade the response: %s", raw)
	}
	if len(part.ShardsMissed) != 1 || part.ShardsMissed[0] != 1 {
		t.Errorf("shards_missed = %v, want [1]", part.ShardsMissed)
	}
	if part.Estimate.Value <= 0 {
		t.Errorf("degraded value = %v", part.Estimate.Value)
	}
	fullWidth := full.Estimate.Hi - full.Estimate.Lo
	partWidth := part.Estimate.Hi - part.Estimate.Lo
	if partWidth <= fullWidth {
		t.Errorf("degraded CI width %v is not wider than the full-cluster %v; a missing stratum must widen, never narrow", partWidth, fullWidth)
	}

	if got := coord.Collector().Metrics().Counter(shardLabel(mDeadlineMiss, 1)).Value(); got < 1 {
		t.Errorf("%s = %v, want >= 1", shardLabel(mDeadlineMiss, 1), got)
	}
	if got := coord.Collector().Metrics().Counter(mPartialResp).Value(); got < 1 {
		t.Errorf("%s = %v, want >= 1", mPartialResp, got)
	}
}

// TestShardRebalance moves a shard to a fresh node and pins the
// determinism contract: the same pinned-seed estimate is byte-identical
// before and after the move, because the new node rebuilds the slice and
// its synopsis from the same spec and derived seed.
func TestShardRebalance(t *testing.T) {
	h, base := startCluster(t, HarnessConfig{Shards: 2})
	setupClusterDataset(t, base, 2000, 200)

	req := server.EstimateRequest{
		Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Seed: 3,
	}
	status, before := postJSON(t, base+"/v1/estimate", req)
	if status != http.StatusOK {
		t.Fatalf("estimate before: %d %s", status, before)
	}

	// A fresh, empty node to take over shard 1.
	fresh := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := fresh.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = fresh.Shutdown(ctx)
	})

	status, raw := postJSON(t, base+"/v1/cluster/rebalance", RebalanceRequest{
		Shard: 1, Addr: "http://" + fresh.Addr(),
	})
	if status != http.StatusOK {
		t.Fatalf("rebalance: %d %s", status, raw)
	}
	var moved RebalanceResponse
	if err := json.Unmarshal(raw, &moved); err != nil {
		t.Fatal(err)
	}
	if moved.Relations != 2 || moved.Synopses != 1 {
		t.Errorf("rebalance moved %d relations, %d synopses; want 2 and 1", moved.Relations, moved.Synopses)
	}

	status, after := postJSON(t, base+"/v1/estimate", req)
	if status != http.StatusOK {
		t.Fatalf("estimate after: %d %s", status, after)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("estimate changed across rebalance:\nbefore: %s\nafter:  %s", before, after)
	}
	// The new node served it.
	if got := fresh.Collector().Metrics().Counter(`relestd_requests_total{code="200"}`).Value(); got < 1 {
		t.Errorf("fresh node served %v estimates after rebalance, want >= 1", got)
	}
	if got := h.Coord.Collector().Metrics().Counter(mRebalance).Value(); got != 1 {
		t.Errorf("%s = %v, want 1", mRebalance, got)
	}

	// Incremental synopses refuse to move: reservoir state has no spec to
	// replay.
	status, raw = postJSON(t, base+"/v1/synopses/inc", server.SynopsisRequest{
		Kind: "incremental", Relations: map[string]int{"R1": 0}, Seed: 5,
	})
	if status != http.StatusCreated {
		t.Fatalf("incremental synopsis: %d %s", status, raw)
	}
	status, raw = postJSON(t, base+"/v1/cluster/rebalance", RebalanceRequest{
		Shard: 0, Addr: "http://" + fresh.Addr(),
	})
	if status != http.StatusConflict {
		t.Errorf("rebalance with incremental synopsis: %d %s, want 409", status, raw)
	}
}

// TestBatchSingleAdmission pins the batch contract across the cluster:
// however many queries a batch carries, each shard node admits exactly
// one batch request — one admission slot per shard per batch.
func TestBatchSingleAdmission(t *testing.T) {
	h, base := startCluster(t, HarnessConfig{Shards: 2})
	setupClusterDataset(t, base, 2000, 200)

	q := "count(join(R1, R2, on a = a))"
	status, raw := postJSON(t, base+"/v1/estimate/batch", server.BatchEstimateRequest{
		Queries: []server.EstimateRequest{
			{Query: q, Synopsis: "main", Seed: 3},
			{Query: q, Synopsis: "main", Seed: 4},
			{Query: "count(R1)", Synopsis: "main", Seed: 5},
			{Query: q, Synopsis: "missing", Seed: 6}, // invalid: never fans out
		},
	})
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, raw)
	}
	var resp BatchEstimateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Succeeded != 3 || resp.Failed != 1 {
		t.Fatalf("batch outcome %d/%d, want 3 succeeded 1 failed: %s", resp.Succeeded, resp.Failed, raw)
	}
	if resp.Results[3].Status != http.StatusNotFound {
		t.Errorf("invalid item status = %d, want 404", resp.Results[3].Status)
	}
	for i, res := range resp.Results[:3] {
		if res.Estimate == nil || res.Estimate.Estimate.Value <= 0 {
			t.Errorf("item %d: %+v", i, res)
		}
	}

	for s := 0; s < 2; s++ {
		if got := counterValue(t, h, s, "relestd_batch_requests_total"); got != 1 {
			t.Errorf("shard %d admitted %v batch requests, want exactly 1", s, got)
		}
		if got := counterValue(t, h, s, `relestd_batch_queries_total{code="200"}`); got != 3 {
			t.Errorf("shard %d ran %v batch queries, want 3", s, got)
		}
	}

	// The coordinator counts every batch outcome once: the batch above,
	// an empty batch and an undecodable body.
	if status, raw := postJSON(t, base+"/v1/estimate/batch", server.BatchEstimateRequest{}); status != http.StatusBadRequest {
		t.Fatalf("empty batch: %d %s", status, raw)
	}
	bad, err := http.Post(base+"/v1/estimate/batch", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("undecodable batch: %d", bad.StatusCode)
	}
	m := h.Coord.Collector().Metrics()
	if ok, refused := m.Counter(coordReqMetric(http.StatusOK)).Value(), m.Counter(coordReqMetric(http.StatusBadRequest)).Value(); ok != 1 || refused != 2 {
		t.Errorf("coordinator counted %v answered and %v refused batches, want 1 and 2", ok, refused)
	}
}

// TestClusterMetricsExposition pins the merged /metrics contract
// (satellite of the sharded tier): coordinator families come first, every
// shard family carries a distinct shard label, each family has exactly
// one TYPE line, and the whole body stays valid Prometheus text format.
func TestClusterMetricsExposition(t *testing.T) {
	_, base := startCluster(t, HarnessConfig{Shards: 2})
	setupClusterDataset(t, base, 2000, 200)
	if status, raw := postJSON(t, base+"/v1/estimate", server.EstimateRequest{
		Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Seed: 3,
	}); status != http.StatusOK {
		t.Fatalf("estimate: %d %s", status, raw)
	}

	status, raw := getBody(t, base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	body := string(raw)

	for _, want := range []string{mFanout, mShardLatency} {
		if !strings.Contains(body, want) {
			t.Errorf("merged exposition lacks %q", want)
		}
	}
	for s := 0; s < 2; s++ {
		if !strings.Contains(body, fmt.Sprintf(`relestd_requests_total{code="200",shard="%d"}`, s)) {
			t.Errorf("exposition lacks shard %d's request counter:\n%s", s, body)
		}
	}

	seriesRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$`)
	typeSeen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fam := strings.Fields(rest)[0]
			if typeSeen[fam] {
				t.Errorf("family %s has more than one TYPE line", fam)
			}
			typeSeen[fam] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !seriesRE.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// clusterDelete issues a DELETE and returns the status and raw body.
func clusterDelete(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", url, err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("closing body: %v", err)
		}
	}()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestShardAvgRefused pins the avg merge contract: each shard's AVG is a
// ratio, not a stratum partial, and summing ratios across shards is ~S
// times the true average — so a multi-shard coordinator refuses avg with
// 422 rather than serve a silently wrong number. At shards=1 the merge
// is the identity and avg stays answerable.
func TestShardAvgRefused(t *testing.T) {
	_, base := startCluster(t, HarnessConfig{Shards: 2})
	setupClusterDataset(t, base, 500, 50)

	status, raw := postJSON(t, base+"/v1/estimate", server.EstimateRequest{
		Query: "avg(R1, a)", Synopsis: "main", Seed: 3,
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("avg at shards=2: %d %s, want 422", status, raw)
	}
	if !strings.Contains(string(raw), "avg does not decompose") {
		t.Errorf("avg refusal does not explain itself: %s", raw)
	}
	// sum and count still decompose and answer.
	status, raw = postJSON(t, base+"/v1/estimate", server.EstimateRequest{
		Query: "sum(R1, a)", Synopsis: "main", Seed: 3,
	})
	if status != http.StatusOK {
		t.Errorf("sum at shards=2: %d %s, want 200", status, raw)
	}

	_, single := startCluster(t, HarnessConfig{Shards: 1})
	setupClusterDataset(t, single, 500, 50)
	status, raw = postJSON(t, single+"/v1/estimate", server.EstimateRequest{
		Query: "avg(R1, a)", Synopsis: "main", Seed: 3,
	})
	if status != http.StatusOK {
		t.Fatalf("avg at shards=1: %d %s, want 200", status, raw)
	}
	var resp EstimateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Estimate.Value <= 0 {
		t.Errorf("single-shard avg = %v, want > 0", resp.Estimate.Value)
	}
}

// TestFanoutRollbackUnwedgesRetry pins the registration rollback: when a
// later shard refuses a fanned-out relation or synopsis push, the shards
// that already accepted are scrubbed, so the earlier failure leaves no
// partial state and the client's retry succeeds instead of wedging on
// 409s forever.
func TestFanoutRollbackUnwedgesRetry(t *testing.T) {
	h, base := startCluster(t, HarnessConfig{Shards: 2})
	shard0 := "http://" + h.Shards[0].Addr()
	shard1 := "http://" + h.Shards[1].Addr()
	const csv = "a\n1\n2\n3\n4\n5\n6\n7\n8\n"

	// Shard 1 already holds a relation named X (say, debris from an
	// earlier operator mistake), so the coordinator's push to it must 409.
	resp, err := http.Post(shard1+"/v1/relations/X", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("pre-seeding shard 1: %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/relations/X", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("conflicted upload: %d, want 502", resp.StatusCode)
	}
	// The rollback scrubbed shard 0's slice.
	if status, raw := getBody(t, shard0+"/v1/relations"); strings.Contains(string(raw), `"X"`) {
		t.Fatalf("shard 0 still holds the rolled-back slice: %d %s", status, raw)
	}

	// Clear the debris and retry: the registration must go through clean.
	if status, raw := clusterDelete(t, shard1+"/v1/relations/X"); status != http.StatusOK {
		t.Fatalf("clearing shard 1 debris: %d %s", status, raw)
	}
	resp, err = http.Post(base+"/v1/relations/X", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("retried upload after rollback: %d, want 201", resp.StatusCode)
	}

	// Same contract for synopsis creation.
	status, raw := postJSON(t, shard1+"/v1/synopses/sx", server.SynopsisRequest{
		Kind: "static", Relations: map[string]int{"X": 2}, Seed: 1,
	})
	if status != http.StatusCreated {
		t.Fatalf("pre-seeding shard 1 synopsis: %d %s", status, raw)
	}
	status, raw = postJSON(t, base+"/v1/synopses/sx", server.SynopsisRequest{
		Kind: "static", Relations: map[string]int{"X": 4}, Seed: 1,
	})
	if status != http.StatusBadGateway {
		t.Fatalf("conflicted synopsis create: %d %s, want 502", status, raw)
	}
	if status, raw := getBody(t, shard0+"/v1/synopses"); strings.Contains(string(raw), `"sx"`) {
		t.Fatalf("shard 0 still holds the rolled-back synopsis: %d %s", status, raw)
	}
	if status, raw := clusterDelete(t, shard1+"/v1/synopses/sx"); status != http.StatusOK {
		t.Fatalf("clearing shard 1 synopsis debris: %d %s", status, raw)
	}
	status, raw = postJSON(t, base+"/v1/synopses/sx", server.SynopsisRequest{
		Kind: "static", Relations: map[string]int{"X": 4}, Seed: 1,
	})
	if status != http.StatusCreated {
		t.Fatalf("retried synopsis create after rollback: %d %s, want 201", status, raw)
	}
	status, raw = postJSON(t, base+"/v1/estimate", server.EstimateRequest{
		Query: "count(X)", Synopsis: "sx", Seed: 3,
	})
	if status != http.StatusOK {
		t.Errorf("estimate after recovered registration: %d %s", status, raw)
	}
}

// TestGenerateRollbackUnwedgesRetry pins atomic generation: a generate
// whose later output collides on a shard rolls its earlier outputs back
// from the coordinator registry and every shard, so the retry starts
// clean.
func TestGenerateRollbackUnwedgesRetry(t *testing.T) {
	h, base := startCluster(t, HarnessConfig{Shards: 2})
	shard0 := "http://" + h.Shards[0].Addr()
	shard1 := "http://" + h.Shards[1].Addr()

	resp, err := http.Post(shard1+"/v1/relations/R2", "text/csv", strings.NewReader("a,b\n1,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("pre-seeding shard 1: %d", resp.StatusCode)
	}

	gen := server.GenerateRequest{Kind: "zipf-pair", N: 200, Domain: 50, Seed: 7}
	status, raw := postJSON(t, base+"/v1/generate", gen)
	if status == http.StatusCreated {
		t.Fatalf("conflicted generate succeeded: %d %s", status, raw)
	}
	// Nothing half-registered anywhere: the coordinator registry and shard
	// 0 both come back empty.
	status, raw = getBody(t, base+"/v1/relations")
	if status != http.StatusOK || strings.Contains(string(raw), `"R1"`) {
		t.Fatalf("coordinator kept a half-registered generate output: %d %s", status, raw)
	}
	if status, raw := getBody(t, shard0+"/v1/relations"); strings.Contains(string(raw), `"R1"`) {
		t.Fatalf("shard 0 kept a half-registered slice: %d %s", status, raw)
	}

	if status, raw := clusterDelete(t, shard1+"/v1/relations/R2"); status != http.StatusOK {
		t.Fatalf("clearing shard 1 debris: %d %s", status, raw)
	}
	status, raw = postJSON(t, base+"/v1/generate", gen)
	if status != http.StatusCreated {
		t.Fatalf("retried generate after rollback: %d %s, want 201", status, raw)
	}
	status, raw = getBody(t, base+"/v1/relations")
	if !strings.Contains(string(raw), `"R1"`) || !strings.Contains(string(raw), `"R2"`) {
		t.Errorf("retried generate did not register both outputs: %d %s", status, raw)
	}
}

// TestStreamRefusedWhileDraining pins the drain contract on the stream
// endpoint: stream events mutate shard reservoirs, so a draining
// coordinator refuses them with 503 like every other mutating endpoint.
func TestStreamRefusedWhileDraining(t *testing.T) {
	h, base := startCluster(t, HarnessConfig{Shards: 1})
	h.Coord.draining.Store(true)
	status, raw := postJSON(t, base+"/v1/synopses/live/stream", server.StreamRequest{
		Op: "insert", Relation: "R1", Tuple: []string{"1", "2"},
	})
	if status != http.StatusServiceUnavailable {
		t.Errorf("stream while draining: %d %s, want 503", status, raw)
	}
}

// postAs is postJSON on behalf of a tenant.
func postAs(t *testing.T, url, tenant string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Relest-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestCoordinatorForwardsTenant pins that the caller's X-Relest-Tenant
// reaches the shards: a synopsis created through the coordinator is
// accounted to the creating tenant (listing and byte quota), and the
// estimate, batch and stream sub-requests carry the header.
func TestCoordinatorForwardsTenant(t *testing.T) {
	big := server.SynopsisRequest{Kind: "static", Relations: map[string]int{"R1": 200, "R2": 200}, Seed: 9}
	generate := func(base string) {
		t.Helper()
		if status, raw := postJSON(t, base+"/v1/generate", server.GenerateRequest{Kind: "zipf-pair", N: 2000, Domain: 200, Seed: 7}); status != http.StatusCreated {
			t.Fatalf("generate: %d %s", status, raw)
		}
	}

	// Unlimited cluster: the listing names the tenant, and the shards'
	// gauges size one synopsis for the quota below.
	h, base := startCluster(t, HarnessConfig{Shards: 2})
	generate(base)
	if status, raw := postAs(t, base+"/v1/synopses/mine", "a", big); status != http.StatusCreated {
		t.Fatalf("create as tenant a: %d %s", status, raw)
	}
	_, raw := getBody(t, base+"/v1/synopses")
	var infos []server.SynopsisInfo
	if err := json.Unmarshal(raw, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Tenant != "a" {
		t.Fatalf("listing = %+v, want one synopsis owned by tenant a", infos)
	}
	one := 0.0
	for _, s := range h.Shards {
		one = max(one, s.Collector().Metrics().Gauge("relest_synopsis_bytes").Value())
	}

	// A per-tenant quota sized for one synopsis is per tenant behind the
	// coordinator too: a's second create is refused, b's first lands.
	_, base = startCluster(t, HarnessConfig{Shards: 2, Shard: server.Config{TenantSynopsisBytes: int64(one * 3 / 2)}})
	generate(base)
	if status, raw := postAs(t, base+"/v1/synopses/a1", "a", big); status != http.StatusCreated {
		t.Fatalf("tenant a's first create: %d %s", status, raw)
	}
	if status, raw := postAs(t, base+"/v1/synopses/a2", "a", big); status == http.StatusCreated || !strings.Contains(string(raw), "quota") {
		t.Errorf("tenant a's second create: %d %s, want a quota refusal", status, raw)
	}
	if status, raw := postAs(t, base+"/v1/synopses/b1", "b", big); status != http.StatusCreated {
		t.Errorf("tenant b's first create: %d %s", status, raw)
	}

	// One shard behind a proxy that records the tenant header per path.
	shard := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := shard.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = shard.Shutdown(ctx)
	})
	target, err := url.Parse("http://" + shard.Addr())
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var mu sync.Mutex
	seen := map[string]string{}
	recording := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.URL.Path] = r.Header.Get("X-Relest-Tenant")
		mu.Unlock()
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(recording.Close)
	coord, err := New(Config{ShardAddrs: []string{recording.URL}, Spec: ShardSpec{Shards: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx)
	})
	base = "http://" + coord.Addr()
	setupClusterDataset(t, base, 2000, 200)
	if status, raw := postJSON(t, base+"/v1/synopses/live", server.SynopsisRequest{Kind: "incremental", Relations: map[string]int{"R1": 0}, Seed: 5}); status != http.StatusCreated {
		t.Fatalf("incremental synopsis: %d %s", status, raw)
	}
	est := server.EstimateRequest{Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Seed: 3}
	for path, body := range map[string]any{
		"/v1/estimate":             est,
		"/v1/estimate/batch":       server.BatchEstimateRequest{Queries: []server.EstimateRequest{est}},
		"/v1/synopses/live/stream": server.StreamRequest{Op: "insert", Relation: "R1", Tuple: []string{"1", "2"}},
	} {
		if status, raw := postAs(t, base+path, "a", body); status != http.StatusOK {
			t.Fatalf("%s as tenant a: %d %s", path, status, raw)
		}
		mu.Lock()
		got := seen[path]
		mu.Unlock()
		if got != "a" {
			t.Errorf("%s reached the shard with tenant %q, want a", path, got)
		}
	}
}
