package server

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"
)

// TestColdWarmEstimatesIdentical sends each request twice to a fresh
// static synopsis. The first (cold) request builds the join indexes its
// sample views memoize; the second (warm) one reuses them. The two
// responses must be byte-identical, and identical across worker counts.
func TestColdWarmEstimatesIdentical(t *testing.T) {
	s, base := startServer(t, Config{})
	status, body := postJSON(t, base+"/v1/generate", GenerateRequest{
		Kind: "zipf-pair", N: 2000, Domain: 200, Seed: 7,
	})
	if status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, body)
	}
	cases := []struct {
		name, query, variance string
		terms                 int
	}{
		{"jackknife-join", "count(join(R1, R2, on a = a))", "jackknife", 1},
		{"split-sample-join", "count(join(R1, R2, on a = a))", "split-sample", 1},
		{"union-intersect", "count(union(R1, R2))", "auto", 3}, // |R1| + |R2| − |R1 ∩ R2|
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first []byte
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("memo%d_w%d", i, workers)
				status, body := postJSON(t, base+"/v1/synopses/"+name, SynopsisRequest{
					Kind: "static", Relations: map[string]int{"R1": 200, "R2": 200}, Seed: 9,
				})
				if status != http.StatusCreated {
					t.Fatalf("create synopsis: %d %s", status, body)
				}
				s.reg.mu.RLock()
				syn := s.reg.syns[name].static
				s.reg.mu.RUnlock()
				req := EstimateRequest{
					Query: tc.query, Synopsis: name, Seed: 3,
					Workers: workers, Variance: tc.variance,
				}
				coldBytes := syn.Bytes()
				status, cold := postJSON(t, base+"/v1/estimate", req)
				if status != http.StatusOK {
					t.Fatalf("cold estimate: %d %s", status, cold)
				}
				if got := estimateResp(t, cold).Estimate.Terms; got != tc.terms {
					t.Errorf("workers=%d: %d polynomial terms, want %d", workers, got, tc.terms)
				}
				if syn.Bytes() <= coldBytes {
					t.Errorf("workers=%d: synopsis bytes %d after the cold request, want > %d (memoized indexes)",
						workers, syn.Bytes(), coldBytes)
				}
				status, warm := postJSON(t, base+"/v1/estimate", req)
				if status != http.StatusOK {
					t.Fatalf("warm estimate: %d %s", status, warm)
				}
				if !bytes.Equal(cold, warm) {
					t.Errorf("workers=%d: warm response differs from cold\ncold %s\nwarm %s", workers, cold, warm)
				}
				// Synopsis names differ per worker count; the rest may not.
				cold = bytes.ReplaceAll(cold, []byte(`"synopsis":"`+name+`"`), []byte(`"synopsis":""`))
				if first == nil {
					first = cold
				} else if !bytes.Equal(first, cold) {
					t.Errorf("workers=%d response differs from workers=1\n%s\n%s", workers, cold, first)
				}
			}
		})
	}
}
