package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// startServer creates, starts, and tears down a daemon on a free port,
// returning it with its base URL.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, "http://" + s.Addr()
}

// postJSON posts v as JSON and returns the status and raw body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
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

// getBody GETs a URL and returns the status and raw body.
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

// setupDataset registers a deterministic zipf-pair (R1, R2) of n tuples
// each and a static synopsis named "main" of sample tuples per relation.
func setupDataset(t *testing.T, base string, n, sample int) {
	t.Helper()
	status, body := postJSON(t, base+"/v1/generate", GenerateRequest{
		Kind: "zipf-pair", N: n, Domain: 200, Seed: 7,
	})
	if status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, body)
	}
	status, body = postJSON(t, base+"/v1/synopses/main", SynopsisRequest{
		Kind: "static", Relations: map[string]int{"R1": sample, "R2": sample}, Seed: 9,
	})
	if status != http.StatusCreated {
		t.Fatalf("create synopsis: %d %s", status, body)
	}
}

// heavyRows is the size of each relation of the heavy dataset.
const heavyRows = 400_000

// slowDeadlineQuery is the deadline request the heavy dataset keeps busy
// by construction: a self-join, whose pattern weights vary by assignment,
// so every round enumerates every pair its sample joins — a cost that
// grows with the join's output (quadratically with the sample), not with
// the probes an equi-join's per-bucket count makes. A census of the heavy
// dataset's 400 000-row relation would enumerate 4·10⁸ pairs per round,
// out of reach of every budget these tests set. Tests that read the
// response assert that premise (samples_consumed below heavyRows) rather
// than assume it.
const slowDeadlineQuery = "count(join(R1, R1, on a = a))"

// setupHeavyDataset registers a join pair big enough that a deadline run
// of slowDeadlineQuery cannot exhaust it within the tests' budgets: the
// budget — not sample exhaustion — ends every run. Load-shedding,
// cancellation, and drain tests rely on these estimates actually
// occupying their workers.
func setupHeavyDataset(t *testing.T, base string) {
	t.Helper()
	status, body := postJSON(t, base+"/v1/generate", GenerateRequest{
		Kind: "zipf-pair", N: heavyRows, Domain: 400, Z1: 0.5, Z2: 0.5, Seed: 7,
	})
	if status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, body)
	}
	status, body = postJSON(t, base+"/v1/synopses/main", SynopsisRequest{
		Kind: "static", Relations: map[string]int{"R1": 50, "R2": 50}, Seed: 9,
	})
	if status != http.StatusCreated {
		t.Fatalf("create synopsis: %d %s", status, body)
	}
}

// estimateResp decodes an EstimateResponse body.
func estimateResp(t *testing.T, raw []byte) EstimateResponse {
	t.Helper()
	var resp EstimateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return resp
}

// waitFor polls cond every millisecond until it holds or the deadline
// passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRelationAndSynopsisLifecycle drives the registration endpoints:
// CSV upload, generation, listing, duplicate rejection.
func TestRelationAndSynopsisLifecycle(t *testing.T) {
	_, base := startServer(t, Config{})

	csv := "a,id\n1,1\n2,2\n3,3\n"
	resp, err := http.Post(base+"/v1/relations/tiny", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, raw)
	}

	// Duplicate name → 409.
	resp, err = http.Post(base+"/v1/relations/tiny", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate upload: want 409, got %d", resp.StatusCode)
	}

	setupDataset(t, base, 2000, 200)

	status, raw := getBody(t, base+"/v1/relations")
	if status != http.StatusOK {
		t.Fatalf("list relations: %d %s", status, raw)
	}
	var rels []RelationInfo
	if err := json.Unmarshal(raw, &rels); err != nil {
		t.Fatal(err)
	}
	if len(rels) != 3 || rels[0].Name != "R1" || rels[2].Name != "tiny" {
		t.Fatalf("relations = %+v", rels)
	}

	status, raw = getBody(t, base+"/v1/synopses")
	if status != http.StatusOK {
		t.Fatalf("list synopses: %d %s", status, raw)
	}
	var syns []SynopsisInfo
	if err := json.Unmarshal(raw, &syns); err != nil {
		t.Fatal(err)
	}
	if len(syns) != 1 || syns[0].Name != "main" || syns[0].Relations["R1"] != 200 {
		t.Fatalf("synopses = %+v", syns)
	}

	// Unknown relation in a synopsis spec → 400.
	status, raw = postJSON(t, base+"/v1/synopses/bad", SynopsisRequest{
		Kind: "static", Relations: map[string]int{"nope": 10},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("bad synopsis: want 400, got %d %s", status, raw)
	}
}

// TestEstimateModes drives plain count/sum/avg, sequential, and deadline
// estimation through the HTTP facade.
func TestEstimateModes(t *testing.T) {
	_, base := startServer(t, Config{})
	setupDataset(t, base, 2000, 200)

	t.Run("plain-count", func(t *testing.T) {
		status, raw := postJSON(t, base+"/v1/estimate", EstimateRequest{
			Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Seed: 3,
		})
		if status != http.StatusOK {
			t.Fatalf("estimate: %d %s", status, raw)
		}
		resp := estimateResp(t, raw)
		if resp.Estimate.Value <= 0 || resp.Estimate.StdErr <= 0 {
			t.Errorf("estimate = %+v", resp.Estimate)
		}
		if resp.SamplesConsumed["R1"] != 200 || resp.SamplesConsumed["R2"] != 200 {
			t.Errorf("samples consumed = %v", resp.SamplesConsumed)
		}
	})

	t.Run("plain-sum-avg", func(t *testing.T) {
		status, raw := postJSON(t, base+"/v1/estimate", EstimateRequest{
			Query: "sum(select(R1, a > 10), a)", Synopsis: "main", Seed: 3,
		})
		if status != http.StatusOK {
			t.Fatalf("sum: %d %s", status, raw)
		}
		if resp := estimateResp(t, raw); resp.Estimate.Value <= 0 {
			t.Errorf("sum = %+v", resp.Estimate)
		}
		status, raw = postJSON(t, base+"/v1/estimate", EstimateRequest{
			Query: "avg(R1, a)", Synopsis: "main", Seed: 3,
		})
		if status != http.StatusOK {
			t.Fatalf("avg: %d %s", status, raw)
		}
		if resp := estimateResp(t, raw); resp.Estimate.Value <= 0 {
			t.Errorf("avg = %+v", resp.Estimate)
		}
	})

	t.Run("avg-zero-count", func(t *testing.T) {
		// No sampled row passes the selection, so the COUNT estimate is 0
		// and the ratio is undefined: a 422 that says so, not a 200 whose
		// NaN cannot be encoded.
		status, raw := postJSON(t, base+"/v1/estimate", EstimateRequest{
			Query: "avg(select(R1, a < -5), a)", Synopsis: "main", Seed: 3,
		})
		var e ErrorResponse
		if err := json.Unmarshal(raw, &e); err != nil || status != http.StatusUnprocessableEntity ||
			!strings.Contains(e.Error, "avg is undefined") || !strings.Contains(e.Error, "COUNT estimate is 0") {
			t.Fatalf("avg over an empty selection: %d %q (decode error %v), want a 422 naming the zero COUNT", status, raw, err)
		}
	})

	t.Run("sequential", func(t *testing.T) {
		status, raw := postJSON(t, base+"/v1/estimate", EstimateRequest{
			Query: "count(join(R1, R2, on a = a))", Synopsis: "main",
			Mode: "sequential", TargetRelErr: 0.2, Seed: 5,
		})
		if status != http.StatusOK {
			t.Fatalf("sequential: %d %s", status, raw)
		}
		resp := estimateResp(t, raw)
		if resp.Pilot == nil || resp.TargetMet == nil {
			t.Fatalf("sequential response missing pilot/target_met: %s", raw)
		}
		if resp.SamplesConsumed["R1"] < 200 {
			t.Errorf("sequential did not grow the sample: %v", resp.SamplesConsumed)
		}
		// The shared synopsis must be untouched: sequential ran on a clone.
		_, raw = getBody(t, base+"/v1/synopses")
		var syns []SynopsisInfo
		if err := json.Unmarshal(raw, &syns); err != nil {
			t.Fatal(err)
		}
		if syns[0].Relations["R1"] != 200 {
			t.Errorf("sequential mutated the shared synopsis: %+v", syns[0])
		}
	})

	t.Run("deadline-budget-expiry", func(t *testing.T) {
		// A request that 150ms cannot take to a census: the budget, not
		// exhaustion, ends the run, and the partial-round estimate still
		// carries its CI.
		_, bigBase := startServer(t, Config{})
		setupHeavyDataset(t, bigBase)
		status, raw := postJSON(t, bigBase+"/v1/estimate", EstimateRequest{
			Query: slowDeadlineQuery, Synopsis: "main",
			Mode: "deadline", BudgetMS: 150, Seed: 5,
		})
		if status != http.StatusOK {
			t.Fatalf("deadline: %d %s", status, raw)
		}
		resp := estimateResp(t, raw)
		if resp.Rounds < 1 {
			t.Errorf("deadline made no rounds: %s", raw)
		}
		if resp.Estimate.StdErr <= 0 || resp.Estimate.Lo >= resp.Estimate.Hi {
			t.Errorf("deadline estimate lacks a CI: %+v", resp.Estimate)
		}
		if n := resp.SamplesConsumed["R1"]; n < 50 || n >= heavyRows {
			t.Errorf("deadline consumed %d of %d rows; want a partial sample: %s", n, heavyRows, raw)
		}
	})

	t.Run("validation", func(t *testing.T) {
		for _, tc := range []struct {
			req  EstimateRequest
			want int
		}{
			{EstimateRequest{Synopsis: "main"}, http.StatusBadRequest},
			{EstimateRequest{Query: "count(R1)"}, http.StatusBadRequest},
			{EstimateRequest{Query: "count(R1)", Synopsis: "nope"}, http.StatusNotFound},
			{EstimateRequest{Query: "count(R1)", Synopsis: "main", Mode: "warp"}, http.StatusBadRequest},
			{EstimateRequest{Query: "count(nope)", Synopsis: "main"}, http.StatusBadRequest},
			{EstimateRequest{Query: "count(R1)", Synopsis: "main", Variance: "psychic"}, http.StatusBadRequest},
			{EstimateRequest{Query: "sum(R1, a)", Synopsis: "main", Mode: "sequential"}, http.StatusBadRequest},
			{EstimateRequest{Query: "group(R1, a)", Synopsis: "main"}, http.StatusBadRequest},
		} {
			status, raw := postJSON(t, base+"/v1/estimate", tc.req)
			if status != tc.want {
				t.Errorf("%+v: want %d, got %d %s", tc.req, tc.want, status, raw)
			}
		}
	})
}

// TestIncrementalSynopsisStream creates an incremental synopsis, feeds
// it the full relation as an insert stream, estimates from it, applies a
// delete, and checks mode restrictions.
func TestIncrementalSynopsisStream(t *testing.T) {
	_, base := startServer(t, Config{})
	status, raw := postJSON(t, base+"/v1/generate", GenerateRequest{
		Kind: "zipf-pair", N: 300, Domain: 50, Seed: 7,
	})
	if status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, raw)
	}
	status, raw = postJSON(t, base+"/v1/synopses/live", SynopsisRequest{
		Kind: "incremental", Relations: map[string]int{"R1": 0}, Seed: 11, Capacity: 100,
	})
	if status != http.StatusCreated {
		t.Fatalf("create incremental: %d %s", status, raw)
	}

	for i := 0; i < 300; i++ {
		status, raw = postJSON(t, base+"/v1/synopses/live/stream", StreamRequest{
			Op: "insert", Relation: "R1",
			Tuple: []string{fmt.Sprint(i%50 + 1), fmt.Sprint(i)},
		})
		if status != http.StatusOK {
			t.Fatalf("insert %d: %d %s", i, status, raw)
		}
	}

	// A base-relation COUNT from the maintained synopsis is exact: the
	// estimator scales the sample by the maintained cardinality.
	status, raw = postJSON(t, base+"/v1/estimate", EstimateRequest{
		Query: "count(R1)", Synopsis: "live", Variance: "none",
	})
	if status != http.StatusOK {
		t.Fatalf("estimate: %d %s", status, raw)
	}
	if resp := estimateResp(t, raw); resp.Estimate.Value < 299.5 || resp.Estimate.Value > 300.5 {
		t.Errorf("count over incremental synopsis = %v, want 300", resp.Estimate.Value)
	}

	status, raw = postJSON(t, base+"/v1/synopses/live/stream", StreamRequest{
		Op: "delete", Relation: "R1", Tuple: []string{"1", "0"},
	})
	if status != http.StatusOK {
		t.Fatalf("delete: %d %s", status, raw)
	}
	status, raw = postJSON(t, base+"/v1/estimate", EstimateRequest{
		Query: "count(R1)", Synopsis: "live", Variance: "none",
	})
	if status != http.StatusOK {
		t.Fatalf("estimate after delete: %d %s", status, raw)
	}
	if resp := estimateResp(t, raw); resp.Estimate.Value < 298.5 || resp.Estimate.Value > 299.5 {
		t.Errorf("count after delete = %v, want 299", resp.Estimate.Value)
	}

	// Sample extensions need base relations; snapshots have none.
	status, raw = postJSON(t, base+"/v1/estimate", EstimateRequest{
		Query: "count(R1)", Synopsis: "live", Mode: "sequential",
	})
	if status != http.StatusBadRequest {
		t.Errorf("sequential over incremental: want 400, got %d %s", status, raw)
	}

	// Stream events against a static synopsis are rejected.
	status, raw = postJSON(t, base+"/v1/synopses/live/stream", StreamRequest{
		Op: "warp", Relation: "R1", Tuple: []string{"1", "1"},
	})
	if status != http.StatusBadRequest {
		t.Errorf("bad op: want 400, got %d %s", status, raw)
	}
}

// TestQueueFullSheds429 pins the admission control: with one worker and
// a one-deep queue, a third concurrent estimate is shed with 429 and
// counted in the shed metric.
func TestQueueFullSheds429(t *testing.T) {
	s, base := startServer(t, Config{Concurrency: 1, QueueDepth: 1})
	setupHeavyDataset(t, base)

	slow := EstimateRequest{
		Query: slowDeadlineQuery, Synopsis: "main",
		Mode: "deadline", BudgetMS: 2000, Seed: 5, Variance: "none",
	}
	results := make(chan int, 2)
	send := func() {
		status, _ := postJSON(t, base+"/v1/estimate", slow)
		results <- status
	}

	go send()
	// Wait until the worker has picked the first task up (queue channel
	// empty, one task in flight) so the second send lands in the queue.
	waitFor(t, 5*time.Second, "worker pickup", func() bool {
		return len(s.tasks) == 0 && s.depth.Load() == 1
	})
	go send()
	waitFor(t, 5*time.Second, "queue occupancy", func() bool {
		return len(s.tasks) == 1 && s.depth.Load() == 2
	})

	status, raw := postJSON(t, base+"/v1/estimate", slow)
	if status != http.StatusTooManyRequests {
		t.Fatalf("third estimate: want 429, got %d %s", status, raw)
	}
	if shed := s.col.Metrics().Counter(mShed).Value(); shed < 1 {
		t.Errorf("shed counter = %v, want ≥ 1", shed)
	}

	for i := 0; i < 2; i++ {
		if status := <-results; status != http.StatusOK {
			t.Errorf("admitted estimate %d: want 200, got %d", i, status)
		}
	}
	waitFor(t, 5*time.Second, "queue drain", func() bool { return s.depth.Load() == 0 })
}

// TestConcurrentLoadSheds floods the daemon with 64 concurrent
// estimation requests against a small queue: every response is either a
// well-formed 200 or a 429, the shed counter matches, and the daemon
// returns to an idle, healthy state.
func TestConcurrentLoadSheds(t *testing.T) {
	s, base := startServer(t, Config{Concurrency: 4, QueueDepth: 8})
	setupHeavyDataset(t, base)

	req := EstimateRequest{
		Query: slowDeadlineQuery, Synopsis: "main",
		Mode: "deadline", BudgetMS: 150, Seed: 5, Variance: "none",
	}
	const inFlight = 64
	results := make(chan int, inFlight)
	for i := 0; i < inFlight; i++ {
		go func() {
			status, raw := postJSON(t, base+"/v1/estimate", req)
			if status == http.StatusOK {
				resp := estimateResp(t, raw)
				if resp.Rounds < 1 || resp.Estimate.Value < 0 {
					t.Errorf("malformed 200 body: %s", raw)
				}
				if resp.SamplesConsumed["R1"] >= heavyRows {
					t.Errorf("a deadline request reached a census; it no longer occupies its worker: %s", raw)
				}
			}
			results <- status
		}()
	}
	counts := map[int]int{}
	for i := 0; i < inFlight; i++ {
		counts[<-results]++
	}
	if counts[http.StatusOK]+counts[http.StatusTooManyRequests] != inFlight {
		t.Fatalf("unexpected statuses: %v", counts)
	}
	if counts[http.StatusOK] == 0 || counts[http.StatusTooManyRequests] == 0 {
		t.Fatalf("want both successes and sheds under load, got %v", counts)
	}
	if shed := s.col.Metrics().Counter(mShed).Value(); int(shed) != counts[http.StatusTooManyRequests] {
		t.Errorf("shed counter = %v, responses = %d", shed, counts[http.StatusTooManyRequests])
	}
	waitFor(t, 10*time.Second, "queue drain", func() bool { return s.depth.Load() == 0 })

	// The daemon is still healthy after the storm.
	status, raw := postJSON(t, base+"/v1/estimate", EstimateRequest{
		Query: "count(R1)", Synopsis: "main", Variance: "none",
	})
	if status != http.StatusOK {
		t.Fatalf("post-storm estimate: %d %s", status, raw)
	}
}

// TestClientCancellationAborts pins the cancellation path: a client that
// walks away mid-estimate makes the server abort the run between
// sampling rounds — long before its 10s budget — and record the
// cancellation in /metrics.
func TestClientCancellationAborts(t *testing.T) {
	s, base := startServer(t, Config{Concurrency: 1})
	setupHeavyDataset(t, base)

	body, err := json.Marshal(EstimateRequest{
		Query: slowDeadlineQuery, Synopsis: "main",
		Mode: "deadline", BudgetMS: 10_000, Seed: 5, Variance: "none",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/estimate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	errs := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			err = fmt.Errorf("request succeeded with %d; want client-side cancellation", resp.StatusCode)
			_ = resp.Body.Close()
		}
		errs <- err
	}()
	waitFor(t, 5*time.Second, "estimate start", func() bool { return s.depth.Load() == 1 })
	cancel()
	if err := <-errs; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error = %v", err)
	}

	// The worker must free up between sampling rounds, within a couple of
	// seconds — not after the 10s budget — and the abort must be counted.
	start := time.Now()
	waitFor(t, 5*time.Second, "worker release", func() bool { return s.depth.Load() == 0 })
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Errorf("worker held for %v after cancellation", elapsed)
	}
	// The handler increments the counter after the worker releases, so
	// poll rather than assert immediately.
	waitFor(t, 5*time.Second, "cancelled counter", func() bool {
		return s.col.Metrics().Counter(mCancelled).Value() >= 1
	})

	// The cancellation shows on the /metrics endpoint.
	status, raw := getBody(t, base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	if !strings.Contains(string(raw), mCancelled) {
		t.Errorf("/metrics lacks %s:\n%s", mCancelled, raw)
	}
}

// TestGracefulShutdownDrains starts several slow estimates, then shuts
// the daemon down mid-flight: every admitted request still gets its 200,
// and the daemon refuses new work while draining.
func TestGracefulShutdownDrains(t *testing.T) {
	cfg := Config{Addr: "127.0.0.1:0", Concurrency: 2, QueueDepth: 8}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	setupHeavyDataset(t, base)

	req := EstimateRequest{
		Query: slowDeadlineQuery, Synopsis: "main",
		Mode: "deadline", BudgetMS: 400, Seed: 5, Variance: "none",
	}
	const n = 6
	type result struct {
		status int
		raw    []byte
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			status, raw := postJSON(t, base+"/v1/estimate", req)
			results <- result{status, raw}
		}()
	}
	waitFor(t, 5*time.Second, "all admitted", func() bool { return s.depth.Load() == n })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	for i := 0; i < n; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Errorf("admitted estimate %d: want 200 through the drain, got %d", i, r.status)
			continue
		}
		// The premise: each estimate was still sampling when the drain
		// began, not finished early at a census.
		if got := estimateResp(t, r.raw).SamplesConsumed["R1"]; got >= heavyRows {
			t.Errorf("admitted estimate %d reached a census (%d rows); the drain overlapped no work", i, got)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// A post-shutdown request cannot connect.
	if _, err := http.Post(base+"/v1/estimate", "application/json", strings.NewReader("{}")); err == nil {
		t.Error("post-shutdown request succeeded; want connection failure")
	}
}

// TestDrainingRefusesNewEstimates exercises the 503 path directly: with
// the draining flag set, the estimate handler refuses before touching
// the queue.
func TestDrainingRefusesNewEstimates(t *testing.T) {
	s, base := startServer(t, Config{})
	setupDataset(t, base, 2000, 200)
	s.draining.Store(true)
	defer s.draining.Store(false) // let Cleanup's Shutdown run normally

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate",
		strings.NewReader(`{"query":"count(R1)","synopsis":"main"}`))
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining estimate: want 503, got %d %s", rec.Code, rec.Body)
	}

	// /healthz reports the drain.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if !strings.Contains(rec.Body.String(), `"draining":true`) {
		t.Errorf("healthz = %s", rec.Body)
	}
}

// TestPanicIsolation injects a panicking task straight into the queue:
// the worker answers 500, counts the panic, and stays alive for the
// next request.
func TestPanicIsolation(t *testing.T) {
	s, base := startServer(t, Config{Concurrency: 1})
	setupDataset(t, base, 2000, 200)

	t1 := &task{
		ctx:  context.Background(),
		do:   func(context.Context) (int, any) { panic("injected") },
		done: make(chan struct{}),
	}
	if ok, status, msg := s.admit(t1); !ok {
		t.Fatalf("admit: %d %s", status, msg)
	}
	<-t1.done
	if !t1.panicked || t1.status != http.StatusInternalServerError {
		t.Fatalf("panicked task: panicked=%v status=%d", t1.panicked, t1.status)
	}
	if got := s.col.Metrics().Counter(mPanics).Value(); got < 1 {
		t.Errorf("panic counter = %v, want ≥ 1", got)
	}

	// The worker survived and still serves estimates.
	status, raw := postJSON(t, base+"/v1/estimate", EstimateRequest{
		Query: "count(R1)", Synopsis: "main", Variance: "none",
	})
	if status != http.StatusOK {
		t.Fatalf("post-panic estimate: %d %s", status, raw)
	}
}

// TestMetricsEndpoint checks /metrics serves the daemon families next to
// the estimator's after some traffic, including the path the join's
// moment pass took.
func TestMetricsEndpoint(t *testing.T) {
	_, base := startServer(t, Config{})
	setupDataset(t, base, 2000, 200)
	status, raw := postJSON(t, base+"/v1/estimate", EstimateRequest{
		Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Seed: 3,
	})
	if status != http.StatusOK {
		t.Fatalf("estimate: %d %s", status, raw)
	}

	status, raw = getBody(t, base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	text := string(raw)
	for _, family := range []string{
		"relestd_requests_total", "relestd_queue_depth", "relestd_request_seconds",
		"relest_samples_rows_total", `relest_marginals_total{path="factorized"}`,
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics lacks %s:\n%s", family, text)
		}
	}
}
