package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"testing"

	"relest/internal/estimator"
	"relest/internal/query"
	"relest/internal/sampling"
	"relest/internal/workload"
)

// goldenPath pins the estimate response bytes at a fixed seed. Regenerate
// deliberately with RELESTD_UPDATE_GOLDEN=1 go test ./internal/server
// after an intended estimator or wire-format change.
const goldenPath = "testdata/estimate_count.golden.json"

// libraryResponseBytes computes the same estimate the daemon serves for
// goldenRequest, via direct library calls, and encodes it exactly the
// way WriteJSON does. Any divergence between the facade and the library
// — an extra draw, a different iteration order, a lossy float round-trip
// — breaks the byte comparison.
func libraryResponseBytes(t *testing.T) []byte {
	t.Helper()
	rng := sampling.NewSource(7).Rand(0)
	r1, r2 := workload.JoinPair(rng, workload.JoinPairSpec{
		Z1: 0.5, Z2: 1.0, Domain: 200, N1: 2000, N2: 2000,
		Correlation: workload.Independent,
	})
	syn := estimator.NewSynopsis()
	// Sorted-name draw order, exactly like the registry.
	drawRNG := sampling.NewSource(9).Rand(0)
	if err := syn.AddDrawn(r1, 200, drawRNG); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(r2, 200, drawRNG); err != nil {
		t.Fatal(err)
	}
	st, err := query.Parse("count(join(R1, R2, on a = a))", synopsisSchemas{syn})
	if err != nil {
		t.Fatal(err)
	}
	h := estimator.NewEstimator(syn, estimator.WithOptions(estimator.Options{Seed: 3}), estimator.WithTierPolicy(estimator.TierSampleOnly))
	res, err := h.Count(context.Background(), estimator.Request{Expr: st.Expr})
	if err != nil {
		t.Fatal(err)
	}
	resp := EstimateResponse{
		Query:    "count(join(R1, R2, on a = a))",
		Synopsis: "main",
		Mode:     "plain",
		Estimate: toResult(res.Estimate),
		SamplesConsumed: map[string]int{
			"R1": 200,
			"R2": 200,
		},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEstimateGoldenByteIdentity pins the facade's determinism contract:
// the response body at a fixed seed is byte-identical across worker
// counts, byte-identical to a direct library call, and byte-identical to
// the committed golden file.
func TestEstimateGoldenByteIdentity(t *testing.T) {
	_, base := startServer(t, Config{})
	setupDataset(t, base, 2000, 200)

	var first []byte
	for _, workers := range []int{1, 4} {
		status, raw := postJSON(t, base+"/v1/estimate", EstimateRequest{
			Query:    "count(join(R1, R2, on a = a))",
			Synopsis: "main",
			Seed:     3,
			Workers:  workers,
		})
		if status != http.StatusOK {
			t.Fatalf("workers=%d: %d %s", workers, status, raw)
		}
		if first == nil {
			first = raw
		} else if !bytes.Equal(first, raw) {
			t.Fatalf("workers=%d response differs from workers=1:\n%s\nvs\n%s", workers, raw, first)
		}
	}

	lib := libraryResponseBytes(t)
	if !bytes.Equal(first, lib) {
		t.Errorf("service response differs from direct library call:\nservice: %s\nlibrary: %s", first, lib)
	}

	if os.Getenv("RELESTD_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, first, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (set RELESTD_UPDATE_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(first, want) {
		t.Errorf("response differs from %s:\ngot:  %s\nwant: %s", goldenPath, first, want)
	}
}
