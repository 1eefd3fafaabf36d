package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// TestConcurrentModesShareStaticSynopsis runs deadline, sequential and
// plain requests concurrently over one static entry, which every mode now
// reads without a clone: tallied joins, whose rounds hold no sample, and a
// self-join, whose rounds grow a clone the request makes itself. Under
// -race no request may write what another reads, and afterwards the
// entry's sample sizes are what it was created with and a plain estimate
// has the bytes it had before.
func TestConcurrentModesShareStaticSynopsis(t *testing.T) {
	srv, base := startServer(t, Config{})
	setupDataset(t, base, 2000, 60)
	plain := EstimateRequest{Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Seed: 3}
	status, before := postJSON(t, base+"/v1/estimate", plain)
	if status != http.StatusOK {
		t.Fatalf("plain estimate: %d %s", status, before)
	}
	reqs := []EstimateRequest{
		plain,
		{Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Mode: "deadline", BudgetMS: 15, Seed: 5},
		{Query: "count(join(select(R1, a < 50), R2, on a = a))", Synopsis: "main", Mode: "deadline", BudgetMS: 15, Seed: 6},
		{Query: "count(join(R1, R1, on a = a))", Synopsis: "main", Mode: "deadline", BudgetMS: 15, Seed: 7},
		{Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Mode: "sequential", TargetRelErr: 0.1, Seed: 8},
		{Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Mode: "sequential", TargetRelErr: 0.1, Variance: "jackknife", Seed: 9},
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4*len(reqs))
	for w := 0; w < 4; w++ {
		for i, req := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, raw := postJSON(t, base+"/v1/estimate", req)
				if status != http.StatusOK && status != http.StatusTooManyRequests {
					errs <- fmt.Sprintf("request %d (%s): %d %s", i, req.Mode, status, raw)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if sizes := synInfos(t, base)["main"].Relations; sizes["R1"] != 60 || sizes["R2"] != 60 {
		t.Errorf("the shared synopsis holds %v after the requests, want 60 rows each", sizes)
	}
	entry, _ := srv.reg.synopsis("main")
	for _, rel := range []string{"R1", "R2"} {
		if n, _ := entry.static.SampleSize(rel); n != 60 {
			t.Errorf("%s: the shared synopsis holds %d rows", rel, n)
		}
	}
	status, after := postJSON(t, base+"/v1/estimate", plain)
	if status != http.StatusOK || !bytes.Equal(after, before) {
		t.Errorf("plain estimate after the requests: %d %s, was %s", status, after, before)
	}
}
