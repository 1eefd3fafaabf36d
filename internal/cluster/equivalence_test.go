package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relest/internal/server"
)

// startTwin boots a stock single node and a coordinator-fronted cluster
// holding the same golden dataset and "main" synopsis, so the same request
// can be sent to both.
func startTwin(t *testing.T, shards int) (node *server.Server, h *Harness) {
	t.Helper()
	node = server.New(server.Config{})
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := node.Shutdown(ctx); err != nil {
			t.Errorf("node shutdown: %v", err)
		}
	})
	setupClusterDataset(t, "http://"+node.Addr(), 2000, 200)
	h, base := startCluster(t, HarnessConfig{Shards: shards})
	setupClusterDataset(t, base, 2000, 200)
	return node, h
}

// serve drives one POST through a handler in process, under ctx, and
// returns the status and the exact response bytes.
func serve(ctx context.Context, handler http.Handler, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestNodeCoordinatorSameValidation pins "the coordinator validates like a
// node" by behaviour: the same valid and invalid requests go to a stock
// node and to a shards=1 coordinator, and status and body must be
// identical — except for the rows the coordinator refuses by design,
// listed in coordOnly with the refusal it must give instead.
func TestNodeCoordinatorSameValidation(t *testing.T) {
	node, h := startTwin(t, 1)
	const join = "count(join(R1, R2, on a = a))"
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	type row struct {
		name string
		req  server.EstimateRequest
		ctx  context.Context
		want int // the node's status
		// coordOnly, when set, is the substring of the 400 the coordinator
		// answers where a node serves (or refuses differently).
		coordOnly string
	}
	rows := []row{
		{name: "valid count", req: server.EstimateRequest{Query: join, Synopsis: "main", Seed: 3}, want: 200},
		{name: "valid sum", req: server.EstimateRequest{Query: "sum(R1, id)", Synopsis: "main", Seed: 3}, want: 200},
		{name: "valid avg", req: server.EstimateRequest{Query: "avg(R1, id)", Synopsis: "main", Seed: 3}, want: 200},
		// The avg response carries no variance, so none is computed and a
		// method the shape has no closed form for cannot refuse it.
		{name: "avg analytic without closed form", req: server.EstimateRequest{Query: "avg(union(select(R1, a < 50), select(R1, a > 100)), id)", Synopsis: "main", Seed: 3, Variance: "analytic"}, want: 200},
		// No sampled row passes the selection: the node refuses the
		// undefined ratio, and the shard's refusal passes through as is.
		{name: "avg of an empty selection", req: server.EstimateRequest{Query: "avg(select(R1, a < -5), a)", Synopsis: "main", Seed: 3}, want: 422},
		{name: "tier policy default", req: server.EstimateRequest{Query: join, Synopsis: "main", Seed: 3, TierPolicy: "default"}, want: 200},
		{name: "missing query", req: server.EstimateRequest{Synopsis: "main"}, want: 400},
		{name: "missing synopsis", req: server.EstimateRequest{Query: join}, want: 400},
		{name: "unknown synopsis", req: server.EstimateRequest{Query: join, Synopsis: "nope"}, want: 404},
		{name: "unknown mode", req: server.EstimateRequest{Query: join, Synopsis: "main", Mode: "psychic"}, want: 400},
		{name: "parse error", req: server.EstimateRequest{Query: "count(join(R1", Synopsis: "main"}, want: 400},
		{name: "unknown relation", req: server.EstimateRequest{Query: "count(R9)", Synopsis: "main"}, want: 400},
		{name: "distinct", req: server.EstimateRequest{Query: "distinct(R1, a)", Synopsis: "main"}, want: 400},
		{name: "group", req: server.EstimateRequest{Query: "group(R1, a)", Synopsis: "main"}, want: 400},
		{name: "bad variance", req: server.EstimateRequest{Query: join, Synopsis: "main", Variance: "bogus"}, want: 400},
		{name: "bad tier policy", req: server.EstimateRequest{Query: join, Synopsis: "main", TierPolicy: "psychic"}, want: 400},
		{name: "tiered sequential", req: server.EstimateRequest{Query: join, Synopsis: "main", Mode: "sequential", Precision: 0.1}, want: 400},
		{name: "sum in deadline mode", req: server.EstimateRequest{Query: "sum(R1, id)", Synopsis: "main", Mode: "deadline", BudgetMS: 5}, want: 400},
		{name: "dead context", req: server.EstimateRequest{Query: join, Synopsis: "main"}, ctx: dead, want: server.StatusClientClosedRequest},

		{name: "sequential", req: server.EstimateRequest{Query: join, Synopsis: "main", Mode: "sequential", Seed: 3}, want: 200, coordOnly: "plain mode only"},
		{name: "deadline", req: server.EstimateRequest{Query: join, Synopsis: "main", Mode: "deadline", BudgetMS: 5, Seed: 3}, want: 200, coordOnly: "plain mode only"},
		{name: "tier policy auto", req: server.EstimateRequest{Query: join, Synopsis: "main", TierPolicy: "auto"}, want: 200, coordOnly: "sample tier only"},
		{name: "precision", req: server.EstimateRequest{Query: join, Synopsis: "main", Precision: 0.2}, want: 200, coordOnly: "sample tier only"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			ctx := r.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			body := mustJSON(t, r.req)
			nStatus, nBody := serve(ctx, node.Handler(), "/v1/estimate", body)
			cStatus, cBody := serve(ctx, h.Coord.Handler(), "/v1/estimate", body)
			if nStatus != r.want {
				t.Fatalf("node answered %d %s, want %d", nStatus, nBody, r.want)
			}
			if r.coordOnly != "" {
				if cStatus != http.StatusBadRequest || !strings.Contains(string(cBody), r.coordOnly) {
					t.Errorf("coordinator answered %d %s, want a 400 naming %q", cStatus, cBody, r.coordOnly)
				}
				return
			}
			if cStatus != nStatus || !bytes.Equal(cBody, nBody) {
				t.Errorf("coordinator differs from node:\nnode:  %d %s\ncoord: %d %s", nStatus, nBody, cStatus, cBody)
			}
		})
	}
}

// TestNodeCoordinatorSameSynopsisCreate pins "the coordinator creates the
// synopses a node creates and refuses the rest in the node's words": the
// same create goes to a stock node and to a coordinator, whose status must
// match the node's at shards 1 and 2, and whose body must be byte-identical
// at shards=1.
func TestNodeCoordinatorSameSynopsisCreate(t *testing.T) {
	rows := []struct {
		name, synopsis string
		req            server.SynopsisRequest
		want           int // the node's status
	}{
		{name: "default kind", synopsis: "dflt", req: server.SynopsisRequest{Relations: map[string]int{"R1": 50}}, want: 201},
		{name: "static", synopsis: "st", req: server.SynopsisRequest{Kind: "static", Relations: map[string]int{"R1": 50, "R2": 40}, Seed: 4}, want: 201},
		{name: "incremental", synopsis: "inc", req: server.SynopsisRequest{Kind: "incremental", Relations: map[string]int{"R1": 0}, Capacity: 100}, want: 201},
		{name: "zero sample size", synopsis: "zero", req: server.SynopsisRequest{Kind: "static", Relations: map[string]int{"R1": 0}}, want: 400},
		{name: "negative sample size", synopsis: "neg", req: server.SynopsisRequest{Kind: "static", Relations: map[string]int{"R1": 5, "R2": -3}}, want: 400},
		{name: "no relations", synopsis: "none", req: server.SynopsisRequest{Kind: "static"}, want: 400},
		{name: "unknown kind", synopsis: "kind", req: server.SynopsisRequest{Kind: "psychic", Relations: map[string]int{"R1": 5}}, want: 400},
		{name: "unknown relation", synopsis: "unk", req: server.SynopsisRequest{Kind: "incremental", Relations: map[string]int{"R1": 5, "R9": 5}}, want: 400},
		{name: "bad name", synopsis: "bad.name", req: server.SynopsisRequest{Kind: "static", Relations: map[string]int{"R1": 5}}, want: 400},
		{name: "duplicate", synopsis: "main", req: server.SynopsisRequest{Kind: "static", Relations: map[string]int{"R1": 5}}, want: 400},
	}
	for _, shards := range []int{1, 2} {
		node, h := startTwin(t, shards)
		for _, r := range rows {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, r.name), func(t *testing.T) {
				body := mustJSON(t, r.req)
				path := "/v1/synopses/" + r.synopsis
				nStatus, nBody := serve(context.Background(), node.Handler(), path, body)
				cStatus, cBody := serve(context.Background(), h.Coord.Handler(), path, body)
				if nStatus != r.want {
					t.Fatalf("node answered %d %s, want %d", nStatus, nBody, r.want)
				}
				if cStatus != nStatus || (shards == 1 && !bytes.Equal(cBody, nBody)) {
					t.Errorf("coordinator differs from node:\nnode:  %d %s\ncoord: %d %s", nStatus, nBody, cStatus, cBody)
				}
			})
		}
	}
}

// TestLargeBodyOneShardEquivalence: a request body between the
// coordinator's former 1 MiB cap and the node's 64 MiB cap (a valid query
// padded with whitespace) is served by a node, so a shards=1 coordinator
// must serve the same bytes rather than refuse it.
func TestLargeBodyOneShardEquivalence(t *testing.T) {
	node, h := startTwin(t, 1)
	body := mustJSON(t, server.EstimateRequest{
		Query:    "count(join(R1, R2, on a = a))" + strings.Repeat(" ", 1<<20+1<<10),
		Synopsis: "main",
		Seed:     3,
	})
	nStatus, nBody := serve(context.Background(), node.Handler(), "/v1/estimate", body)
	if nStatus != http.StatusOK {
		t.Fatalf("node refused the %d-byte body: %d %.200s", len(body), nStatus, nBody)
	}
	cStatus, cBody := serve(context.Background(), h.Coord.Handler(), "/v1/estimate", body)
	if cStatus != nStatus || !bytes.Equal(cBody, nBody) {
		t.Errorf("coordinator differs from node on a %d-byte body:\nnode:  %d %.200s\ncoord: %d %.200s",
			len(body), nStatus, nBody, cStatus, cBody)
	}
}

// TestBadVarianceRefusedBeforeFanout: an unknown variance method is
// refused by the coordinator with the node's exact 400, on the singleton
// and the batch endpoint, without a single shard sub-request.
func TestBadVarianceRefusedBeforeFanout(t *testing.T) {
	node, h := startTwin(t, 2)
	bad := server.EstimateRequest{Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Variance: "bogus"}
	fanouts := func() float64 { return h.Coord.Collector().Metrics().Counter(mFanout).Value() }
	before := fanouts()

	body := mustJSON(t, bad)
	nStatus, nBody := serve(context.Background(), node.Handler(), "/v1/estimate", body)
	cStatus, cBody := serve(context.Background(), h.Coord.Handler(), "/v1/estimate", body)
	if nStatus != http.StatusBadRequest {
		t.Fatalf("node answered %d %s, want 400", nStatus, nBody)
	}
	if cStatus != nStatus || !bytes.Equal(cBody, nBody) {
		t.Errorf("singleton: coordinator differs from node:\nnode:  %d %s\ncoord: %d %s", nStatus, nBody, cStatus, cBody)
	}

	var nodeErr server.ErrorResponse
	if err := json.Unmarshal(nBody, &nodeErr); err != nil {
		t.Fatal(err)
	}
	status, raw := serve(context.Background(), h.Coord.Handler(), "/v1/estimate/batch",
		mustJSON(t, server.BatchEstimateRequest{Queries: []server.EstimateRequest{bad}}))
	var batch BatchEstimateResponse
	if err := json.Unmarshal(raw, &batch); err != nil || status != http.StatusOK || len(batch.Results) != 1 {
		t.Fatalf("batch: %d %s (%v)", status, raw, err)
	}
	if got := batch.Results[0]; got.Status != http.StatusBadRequest || got.Error != nodeErr.Error {
		t.Errorf("batch item = %d %q, want 400 %q", got.Status, got.Error, nodeErr.Error)
	}

	if after := fanouts(); after != before {
		t.Errorf("%s moved from %v to %v: an invalid request reached the shards", mFanout, before, after)
	}
}
