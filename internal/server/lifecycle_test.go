package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// synInfos fetches and decodes /v1/synopses.
func synInfos(t *testing.T, base string) map[string]SynopsisInfo {
	t.Helper()
	status, raw := getBody(t, base+"/v1/synopses")
	if status != http.StatusOK {
		t.Fatalf("list synopses: %d %s", status, raw)
	}
	var infos []SynopsisInfo
	if err := json.Unmarshal(raw, &infos); err != nil {
		t.Fatal(err)
	}
	out := map[string]SynopsisInfo{}
	for _, info := range infos {
		out[info.Name] = info
	}
	return out
}

// TestEvictionThenReferenceRebuilds pins the eviction contract this
// service chose: referencing an evicted synopsis transparently rebuilds
// it from its creation spec (never a 404), and the rebuilt estimate is
// byte-identical to the pre-eviction one — the deterministic redraw makes
// eviction invisible to clients.
func TestEvictionThenReferenceRebuilds(t *testing.T) {
	s, base := startServer(t, Config{})
	setupDataset(t, base, 2000, 200)

	req := EstimateRequest{Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Seed: 3}
	status, before := postJSON(t, base+"/v1/estimate", req)
	if status != http.StatusOK {
		t.Fatalf("pre-eviction estimate: %d %s", status, before)
	}

	// Shrink the budget below the resident bytes and create a second
	// synopsis: "main" is now the LRU entry and must be evicted.
	s.reg.budget = int64(s.reg.synopsisBytes()) + 10
	status, raw := postJSON(t, base+"/v1/synopses/other", SynopsisRequest{
		Kind: "static", Relations: map[string]int{"R1": 200, "R2": 200}, Seed: 21,
	})
	if status != http.StatusCreated {
		t.Fatalf("create other: %d %s", status, raw)
	}
	if infos := synInfos(t, base); !infos["main"].Evicted {
		t.Fatalf("main not evicted under budget: %+v", infos)
	}
	if got := s.col.Metrics().Counter(mEvictions).Value(); got < 1 {
		t.Errorf("eviction counter = %v, want ≥ 1", got)
	}

	// Referencing the evicted synopsis answers 200 with identical bytes.
	status, after := postJSON(t, base+"/v1/estimate", req)
	if status != http.StatusOK {
		t.Fatalf("post-eviction estimate: %d %s", status, after)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("rebuilt estimate differs:\npre  %s\npost %s", before, after)
	}
	if got := s.col.Metrics().Counter(mRebuilds).Value(); got < 1 {
		t.Errorf("rebuild counter = %v, want ≥ 1", got)
	}
	if infos := synInfos(t, base); infos["main"].Evicted {
		t.Errorf("main still marked evicted after rebuild: %+v", infos)
	}
}

// TestTenantQueueSlots pins per-tenant admission: with one slot per
// tenant, a tenant's second concurrent estimate is shed with 429 while
// another tenant still gets in; the slot frees once the first request
// finishes.
func TestTenantQueueSlots(t *testing.T) {
	s, base := startServer(t, Config{Concurrency: 1, QueueDepth: 8, TenantQueueSlots: 1})
	setupHeavyDataset(t, base)

	slow, err := json.Marshal(EstimateRequest{
		Query: slowDeadlineQuery, Synopsis: "main",
		Mode: "deadline", BudgetMS: 1500, Seed: 5, Variance: "none",
	})
	if err != nil {
		t.Fatal(err)
	}
	post := func(tenant string, body []byte) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+"/v1/estimate", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Relest-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	results := make(chan int, 1)
	go func() {
		status, _ := post("alice", slow)
		results <- status
	}()
	waitFor(t, 5*time.Second, "alice in flight", func() bool { return s.depth.Load() == 1 })

	status, raw := post("alice", slow)
	if status != http.StatusTooManyRequests {
		t.Fatalf("alice's second request: want 429, got %d %s", status, raw)
	}
	if !strings.Contains(string(raw), "alice") {
		t.Errorf("429 body does not name the tenant: %s", raw)
	}
	if got := s.col.Metrics().Counter(mTenantShed).Value(); got < 1 {
		t.Errorf("tenant shed counter = %v, want ≥ 1", got)
	}

	// A different tenant is not blocked by alice's slot.
	fast, err := json.Marshal(EstimateRequest{Query: "count(R1)", Synopsis: "main", Variance: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if status, raw := post("bob", fast); status != http.StatusOK {
		t.Fatalf("bob's request: want 200, got %d %s", status, raw)
	}

	if status := <-results; status != http.StatusOK {
		t.Fatalf("alice's first request: want 200, got %d", status)
	}
	waitFor(t, 5*time.Second, "slot release", func() bool { return s.depth.Load() == 0 })
	if status, raw := post("alice", fast); status != http.StatusOK {
		t.Fatalf("alice after release: want 200, got %d %s", status, raw)
	}
}

// TestTenantSynopsisByteQuota pins the synopsis byte quota: a creation
// that would push a tenant past its allowance is rejected with 413 and
// leaves no entry behind, while a smaller one (and another tenant's)
// still lands.
func TestTenantSynopsisByteQuota(t *testing.T) {
	s, base := startServer(t, Config{})
	setupDataset(t, base, 2000, 200) // "main", owned by the default tenant

	// Pin the quota just above the resident bytes of "main": the default
	// tenant can afford a small synopsis but not a second big one.
	mainBytes := s.reg.synopsisBytes()
	s.reg.tenantBudget = int64(mainBytes + mainBytes/4)

	status, raw := postJSON(t, base+"/v1/synopses/big", SynopsisRequest{
		Kind: "static", Relations: map[string]int{"R1": 200, "R2": 200}, Seed: 23,
	})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-quota create: want 413, got %d %s", status, raw)
	}
	if _, exists := synInfos(t, base)["big"]; exists {
		t.Error("rejected synopsis was registered anyway")
	}
	if got := s.col.Metrics().Counter(mQuotaRejected).Value(); got < 1 {
		t.Errorf("quota rejection counter = %v, want ≥ 1", got)
	}

	// A small synopsis still fits under the default tenant's quota.
	status, raw = postJSON(t, base+"/v1/synopses/small", SynopsisRequest{
		Kind: "static", Relations: map[string]int{"R1": 20}, Seed: 23,
	})
	if status != http.StatusCreated {
		t.Fatalf("small create: want 201, got %d %s", status, raw)
	}

	// Another tenant has its own allowance: the same big spec lands.
	body, err := json.Marshal(SynopsisRequest{
		Kind: "static", Relations: map[string]int{"R1": 200, "R2": 200}, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/synopses/carol-big", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Relest-Tenant", "carol")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("carol's create: want 201, got %d", resp.StatusCode)
	}
	if info := synInfos(t, base)["carol-big"]; info.Tenant != "carol" {
		t.Errorf("carol-big tenant = %q, want carol", info.Tenant)
	}
}

// batchResp decodes a BatchEstimateResponse body.
func batchResp(t *testing.T, raw []byte) BatchEstimateResponse {
	t.Helper()
	var resp BatchEstimateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return resp
}

// TestBatchEstimatePartialSuccess pins the batch contract: a mix of valid
// and invalid queries answers 200 with per-item statuses mirroring the
// singleton endpoint — valid items carry estimates identical to their
// singleton counterparts (batching must not change values),
// invalid items carry the singleton's status and error.
func TestBatchEstimatePartialSuccess(t *testing.T) {
	s, base := startServer(t, Config{})
	setupDataset(t, base, 2000, 200)

	queries := []EstimateRequest{
		{Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Seed: 3},
		{Query: "count(join(R1, R2, on a = a))", Synopsis: "nope", Seed: 3},    // 404
		{Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Seed: 4},    // item 0's query at another seed
		{Query: "count(syntax error", Synopsis: "main"},                        // 400
		{Query: "sum(R1, a)", Synopsis: "main", Mode: "sequential"},            // 400: sequential is count-only
		{Query: "count(R1)", Synopsis: "main", Seed: 3, Variance: "jackknife"}, // different variance path
	}
	status, raw := postJSON(t, base+"/v1/estimate/batch", BatchEstimateRequest{Queries: queries})
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, raw)
	}
	resp := batchResp(t, raw)
	if len(resp.Results) != len(queries) {
		t.Fatalf("results = %d, want %d", len(resp.Results), len(queries))
	}
	wantStatus := []int{200, 404, 200, 400, 400, 200}
	for i, want := range wantStatus {
		item := resp.Results[i]
		if item.Status != want {
			t.Errorf("item %d: status %d, want %d (%s)", i, item.Status, want, item.Error)
		}
		if (item.Status == http.StatusOK) != (item.Estimate != nil) {
			t.Errorf("item %d: status %d with estimate=%v", i, item.Status, item.Estimate)
		}
		if item.Status != http.StatusOK && item.Error == "" {
			t.Errorf("item %d: failed without an error message", i)
		}
	}
	if resp.Succeeded != 3 || resp.Failed != 3 {
		t.Errorf("succeeded/failed = %d/%d, want 3/3", resp.Succeeded, resp.Failed)
	}

	// Batched estimates must equal their singleton counterparts exactly.
	for _, i := range []int{0, 2, 5} {
		status, raw := postJSON(t, base+"/v1/estimate", queries[i])
		if status != http.StatusOK {
			t.Fatalf("singleton %d: %d %s", i, status, raw)
		}
		single := estimateResp(t, raw)
		if !reflect.DeepEqual(*resp.Results[i].Estimate, single) {
			t.Errorf("item %d differs from singleton:\nbatch     %+v\nsingleton %+v", i, *resp.Results[i].Estimate, single)
		}
	}

	// The batch was admitted exactly once and recorded as one batch with
	// len(queries) item observations.
	if got := s.col.Metrics().Counter(mBatch).Value(); got != 1 {
		t.Errorf("batch counter = %v, want 1", got)
	}
	if got := s.col.Metrics().Counter(batchQueryMetric(http.StatusOK)).Value(); got != 3 {
		t.Errorf("batch 200-item counter = %v, want 3", got)
	}

	// Validation: an empty batch and an oversized batch are rejected whole.
	if status, raw := postJSON(t, base+"/v1/estimate/batch", BatchEstimateRequest{}); status != http.StatusBadRequest {
		t.Errorf("empty batch: want 400, got %d %s", status, raw)
	}
	over := BatchEstimateRequest{Queries: make([]EstimateRequest, s.cfg.MaxBatchQueries+1)}
	if status, raw := postJSON(t, base+"/v1/estimate/batch", over); status != http.StatusBadRequest {
		t.Errorf("oversized batch: want 400, got %d %s", status, raw)
	}
}

// TestBatchCancellationNoPartialEstimates extends the PR-4 cancellation
// contract to the batched path (the DeadlineCount audit): when the batch
// context dies mid-run, the in-flight deadline estimate aborts between
// sampling rounds and every item — in flight or not yet started — answers
// a cancellation status with no estimate body. A partial estimate must
// never surface through the batch API.
func TestBatchCancellationNoPartialEstimates(t *testing.T) {
	s, base := startServer(t, Config{Concurrency: 1})
	setupHeavyDataset(t, base)

	slow := EstimateRequest{
		Query: slowDeadlineQuery, Synopsis: "main",
		Mode: "deadline", BudgetMS: 10_000, Seed: 5, Variance: "none",
	}
	body, err := json.Marshal(BatchEstimateRequest{Queries: []EstimateRequest{slow, slow, slow}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate/batch", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rec, req)
	}()

	// Cancel while the first item is mid-estimation: it has a 10s budget,
	// so anything but a between-rounds abort would hold the worker for
	// seconds.
	waitFor(t, 5*time.Second, "batch admitted", func() bool { return s.depth.Load() == 1 })
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	cancel()
	<-done
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Errorf("batch held for %v after cancellation", elapsed)
	}

	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d %s", rec.Code, rec.Body)
	}
	resp := batchResp(t, rec.Body.Bytes())
	if len(resp.Results) != 3 || resp.Succeeded != 0 || resp.Failed != 3 {
		t.Fatalf("results = %+v", resp)
	}
	for i, item := range resp.Results {
		if item.Status != StatusClientClosedRequest {
			t.Errorf("item %d: status %d, want %d", i, item.Status, StatusClientClosedRequest)
		}
		if item.Estimate != nil {
			t.Errorf("item %d: partial estimate surfaced after cancellation: %+v", i, item.Estimate)
		}
		if item.Error == "" {
			t.Errorf("item %d: cancelled without an error message", i)
		}
	}
	waitFor(t, 5*time.Second, "queue drain", func() bool { return s.depth.Load() == 0 })
}

// TestDeadEntryContextAnswersCancelStatus pins the doEstimate audit fix
// directly: a task whose context is already dead when the worker picks it
// up answers 499/504 — never the misleading "deadline mode needs
// budget_ms" 400 the old budget mapping produced, and never an estimate.
func TestDeadEntryContextAnswersCancelStatus(t *testing.T) {
	s, base := startServer(t, Config{})
	setupDataset(t, base, 2000, 200)

	req := EstimateRequest{
		Query: "count(join(R1, R2, on a = a))", Synopsis: "main",
		Mode: "deadline", Seed: 5, Variance: "none",
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if status, body := s.doEstimate(cancelled, req); status != StatusClientClosedRequest {
		t.Errorf("cancelled ctx: status %d (%+v), want %d", status, body, StatusClientClosedRequest)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if status, body := s.doEstimate(expired, req); status != http.StatusGatewayTimeout {
		t.Errorf("expired ctx: status %d (%+v), want 504", status, body)
	}

	// Sanity: the same request with a live deadline still succeeds.
	live, cancel3 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel3()
	if status, body := s.doEstimate(live, req); status != http.StatusOK {
		t.Errorf("live ctx: status %d (%+v), want 200", status, body)
	}
	_ = base
}
