package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"relest/internal/estimator"
	"relest/internal/query"
	"relest/internal/relation"
)

// streamIncremental registers a zipf-pair and an incremental synopsis
// "live" over R1 and R2 on the server, streams inserts and deletes into
// it, and replays the same events into an in-process Incremental with the
// same seed and capacity: the library's copy of the served synopsis. The
// stream is long enough that the stores compact.
func streamIncremental(t *testing.T, s *Server, base string) *estimator.Incremental {
	t.Helper()
	status, raw := postJSON(t, base+"/v1/generate", GenerateRequest{Kind: "zipf-pair", N: 300, Domain: 40, Seed: 7})
	if status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, raw)
	}
	status, raw = postJSON(t, base+"/v1/synopses/live", SynopsisRequest{
		Kind: "incremental", Relations: map[string]int{"R1": 0, "R2": 0}, Seed: 11, Capacity: 60,
	})
	if status != http.StatusCreated {
		t.Fatalf("create incremental: %d %s", status, raw)
	}
	inc := estimator.NewIncrementalWithOptions(estimator.IncrementalOptions{Capacity: 60, Seed: 11})
	for _, rel := range []string{"R1", "R2"} {
		s.reg.mu.RLock()
		r := s.reg.cat[rel]
		s.reg.mu.RUnlock()
		if err := inc.Track(rel, r.Schema()); err != nil {
			t.Fatal(err)
		}
	}
	event := func(op, rel string, a, id int) {
		cells := []string{fmt.Sprint(a), fmt.Sprint(id)}
		if status, raw := postJSON(t, base+"/v1/synopses/live/stream", StreamRequest{Op: op, Relation: rel, Tuple: cells}); status != http.StatusOK {
			t.Fatalf("%s %v: %d %s", op, cells, status, raw)
		}
		tup := relation.Tuple{relation.Int(int64(a)), relation.Int(int64(id))}
		var err error
		if op == "insert" {
			err = inc.Insert(rel, tup)
		} else {
			err = inc.Delete(rel, tup)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	key := func(i int) int { return i/2*7%40 + 1 }
	for i := 0; i < 400; i++ {
		rel := []string{"R1", "R2"}[i%2]
		event("insert", rel, key(i), i)
		if i%5 == 4 {
			event("delete", rel, key(i-4), i-4)
		}
	}
	return inc
}

// libraryPlainBytes answers a plain-mode request through the library over
// syn and encodes the response the way WriteJSON does.
func libraryPlainBytes(t *testing.T, syn *estimator.Synopsis, req EstimateRequest) []byte {
	t.Helper()
	st, err := query.Parse(req.Query, synopsisSchemas{syn})
	if err != nil {
		t.Fatal(err)
	}
	p := PreparedEstimate{Req: req, Stmt: st}
	if p.Tier, err = estimator.ParseTierPolicy(req.TierPolicy); err != nil {
		t.Fatal(err)
	}
	p.Tiered = p.Tier != estimator.TierDefault
	resp := EstimateResponse{Query: req.Query, Synopsis: req.Synopsis, Mode: "plain"}
	var tier string
	if resp.Estimate, tier, err = answerPlain(context.Background(), p, syn, estimator.Options{Seed: req.Seed, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if p.Tiered {
		resp.Tier = tier
	}
	if resp.SamplesConsumed, err = consumedSamples(st.Expr, syn); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIncrementalEstimateMatchesLibrary pins what an incremental
// synopsis serves: an untiered request, which the server answers from a
// snapshot of the samples alone, is byte-identical to the library's
// answer over a full Snapshot (samples and sketches) of the same stream;
// a tiered request still reads the sketch tier and matches the library
// too.
func TestIncrementalEstimateMatchesLibrary(t *testing.T) {
	s, base := startServer(t, Config{EstimatorWorkers: 1})
	inc := streamIncremental(t, s, base)
	syn, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []EstimateRequest{
		{Query: "count(join(R1, R2, on a = a))", Seed: 3},
		{Query: "count(select(R1, a < 10))", Seed: 5},
		{Query: "sum(join(R1, R2, on a = a), id)", Seed: 2},
		{Query: "avg(R2, id)", Seed: 1},
		{Query: "count(join(R1, R2, on a = a))", Seed: 3, TierPolicy: "auto"},
		{Query: "count(join(R1, R2, on a = a))", Seed: 3, TierPolicy: "sketch"},
	} {
		req.Synopsis = "live"
		status, raw := postJSON(t, base+"/v1/estimate", req)
		if status != http.StatusOK {
			t.Fatalf("%s %q: %d %s", req.Query, req.TierPolicy, status, raw)
		}
		if want := libraryPlainBytes(t, syn, req); !bytes.Equal(raw, want) {
			t.Errorf("%s %q: service\n%s library\n%s", req.Query, req.TierPolicy, raw, want)
		}
		if req.TierPolicy == "sketch" && !strings.Contains(string(raw), `"tier":"sketch"`) {
			t.Errorf("a sketch-only request was not answered from the sketch tier: %s", raw)
		}
	}
}

// TestIncrementalRefusalTakesNoSnapshot holds an incremental entry's lock,
// which every snapshot needs, while refused requests run: each answers its
// 400 without waiting for the lock, so none took a snapshot. A valid
// request, by contrast, waits for the lock and answers once it is free.
func TestIncrementalRefusalTakesNoSnapshot(t *testing.T) {
	s, base := startServer(t, Config{})
	streamIncremental(t, s, base)
	entry, ok := s.reg.synopsis("live")
	if !ok {
		t.Fatal("no synopsis live")
	}
	run := func(req EstimateRequest) <-chan int {
		done := make(chan int, 1)
		go func() {
			status, _ := s.doEstimate(context.Background(), req)
			done <- status
		}()
		return done
	}
	entry.mu.Lock()
	for _, req := range []EstimateRequest{
		{Query: "count(R1)", Synopsis: "live", Mode: "sequential"},
		{Query: "count(nosuch)", Synopsis: "live"},
		{Query: "group(R1, a)", Synopsis: "live"},
		{Query: "count(R1)", Synopsis: "live", Variance: "psychic"},
		{Query: "count(R1)", Synopsis: "live", TierPolicy: "oracle"},
	} {
		select {
		case status := <-run(req):
			if status != http.StatusBadRequest {
				t.Errorf("%+v: status %d, want 400", req, status)
			}
		case <-time.After(10 * time.Second):
			entry.mu.Unlock()
			t.Fatalf("%+v waited for the entry lock: a refused request took a snapshot", req)
		}
	}
	valid := run(EstimateRequest{Query: "count(R1)", Synopsis: "live"})
	select {
	case status := <-valid:
		entry.mu.Unlock()
		t.Fatalf("a valid request answered %d without the entry lock", status)
	case <-time.After(50 * time.Millisecond):
	}
	entry.mu.Unlock()
	if status := <-valid; status != http.StatusOK {
		t.Errorf("valid request: status %d", status)
	}
}

// TestStreamRefusedCounted sends one event of each kind Incremental
// refuses — an insert of a tuple the sample holds, and a delete of an
// absent tuple when every live row is sampled — and reads one refusal per
// reason from /metrics. An accepted event counts nothing.
func TestStreamRefusedCounted(t *testing.T) {
	_, base := startServer(t, Config{})
	setupDataset(t, base, 500, 50)
	status, raw := postJSON(t, base+"/v1/synopses/live", SynopsisRequest{
		Kind: "incremental", Relations: map[string]int{"R1": 0}, Seed: 11, Capacity: 16,
	})
	if status != http.StatusCreated {
		t.Fatalf("create live: %d %s", status, raw)
	}
	streamEvents(t, base, 0, 3)
	for _, ev := range []StreamRequest{
		{Op: "insert", Relation: "R1", Tuple: []string{"0", "100000"}},
		{Op: "delete", Relation: "R1", Tuple: []string{"1", "999999"}},
	} {
		if status, raw := postJSON(t, base+"/v1/synopses/live/stream", ev); status != http.StatusConflict {
			t.Fatalf("%s %v: %d %s, want 409", ev.Op, ev.Tuple, status, raw)
		}
	}
	status, raw = getBody(t, base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	for _, want := range []string{
		mStreamRefused + `{reason="live_duplicate"} 1`,
		mStreamRefused + `{reason="absent_delete"} 1`,
	} {
		if !strings.Contains(string(raw), want+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", want, raw)
		}
	}
}
