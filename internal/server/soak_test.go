package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"relest/internal/bench"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/workload"
)

// The soak harness: each scenario floods a live relestd with one flavor
// of adversarial traffic — skewed query mixes, bursts, hot-key eviction
// churn, insert/delete storms, client cancellations — while a calibration
// probe stream runs the PR-3 join experiment against the same server. The
// gate is that the statistics stay inside the library's own calibration
// bands while the daemon is under attack: load may delay an estimate, but
// it must never bias one.

// soakProbes is the calibration trial count per scenario. 100 trials of a
// nominal-0.95 CI put the acceptance band at [88, 99] — the same numbers
// internal/estimator's offline calibration gate uses.
const soakProbes = 100

// soakDataset mirrors the estimator calibration join experiment exactly:
// zipf-pair, 2000 rows, domain n/20, both sides Z = 0.5, independent.
var soakDataset = GenerateRequest{Kind: "zipf-pair", N: 2000, Domain: 100, Z1: 0.5, Z2: 0.5, Seed: 7}

// soakTruth recomputes the dataset client-side and returns the exact join
// size the probes are calibrated against. The server builds the pair from
// the same seed through the same generator, so this is the ground truth
// for what the server holds.
func soakTruth() float64 {
	rng := sampling.NewSource(soakDataset.Seed).Rand(0)
	r1, r2 := workload.JoinPair(rng, workload.JoinPairSpec{
		Z1: soakDataset.Z1, Z2: soakDataset.Z2, Domain: soakDataset.Domain,
		N1: soakDataset.N, N2: soakDataset.N, Correlation: workload.Independent,
	})
	return workload.ExactJoinSize(r1, "a", r2, "a")
}

// startSoakServer brings up a snapshot-enabled daemon with the
// calibration dataset and "main" synopsis loaded.
func startSoakServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.SnapshotDir = t.TempDir()
	s, base := startServer(t, cfg)
	status, raw := postJSON(t, base+"/v1/generate", soakDataset)
	if status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, raw)
	}
	status, raw = postJSON(t, base+"/v1/synopses/main", SynopsisRequest{
		Kind: "static", Relations: map[string]int{"R1": 100, "R2": 100}, Seed: 9,
	})
	if status != http.StatusCreated {
		t.Fatalf("create main: %d %s", status, raw)
	}
	return s, base
}

// runProbes executes the calibration stream: soakProbes independent
// trials, each drawing its own synopsis (seed 1000+i, 5% sample) and
// estimating the join count with analytic variance at 0.95 confidence.
// Trials land in per-index slots and are reduced in index order, so the
// statistics are independent of scheduling; shed responses retry rather
// than drop, so saturation cannot thin the trial set.
func runProbes(t *testing.T, d *workload.Driver) (bench.ErrorStats, bench.Coverage) {
	t.Helper()
	trials := make([]workload.Trial, soakProbes)
	workload.Fanout(4, soakProbes, func(i int) {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		name := fmt.Sprintf("probe-%d", i)
		status, raw, err := d.DoRetry(ctx, "/v1/synopses/"+name, SynopsisRequest{
			Kind: "static", Relations: map[string]int{"R1": 100, "R2": 100}, Seed: 1000 + int64(i),
		})
		if err != nil || status != http.StatusCreated {
			t.Errorf("probe %d synopsis: %d %s (%v)", i, status, raw, err)
			return
		}
		trials[i] = d.Estimate(ctx, EstimateRequest{
			Query: "count(join(R1, R2, on a = a))", Synopsis: name,
			Seed: 3, Variance: "analytic", Confidence: 0.95,
		})
	})
	truth := soakTruth()
	var errs bench.ErrorStats
	var cov bench.Coverage
	for i, tr := range trials {
		if !tr.OK {
			t.Errorf("probe %d failed with status %d", i, tr.Status)
			continue
		}
		errs.Observe(tr.Value, truth)
		cov.Observe(tr.Lo, tr.Hi, truth)
	}
	return errs, cov
}

// assertCalibrated holds the probe statistics to the PR-3 join bands.
func assertCalibrated(t *testing.T, errs bench.ErrorStats, cov bench.Coverage) {
	t.Helper()
	if n := errs.N(); n != soakProbes {
		t.Errorf("only %d/%d probes produced estimates", n, soakProbes)
	}
	if bias := errs.Bias(); bias < -5 || bias > 5 {
		t.Errorf("bias under load = %+.2f%%, want within [-5, 5]", bias)
	}
	if rate := cov.Rate(); rate < 88 || rate > 99 {
		t.Errorf("CI coverage under load = %.1f%%, want within [88, 99] for nominal 0.95", rate)
	}
	t.Logf("probes: ARE %.2f%%, bias %+.2f%%, coverage %.1f%%", errs.ARE(), errs.Bias(), cov.Rate())
}

// snapshotUnderLoad saves a snapshot while traffic is in flight — every
// scenario exercises save-under-load at its midpoint.
func snapshotUnderLoad(t *testing.T, d *workload.Driver) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if status, raw, err := d.DoRetry(ctx, "/v1/snapshot", nil); err != nil || status != http.StatusOK {
		t.Errorf("snapshot under load: %d %s (%v)", status, raw, err)
	}
}

// background starts fn in a goroutine and returns a wait func. (Test-only
// plumbing; all server-side estimation still reduces through
// internal/parallel.)
func background(fn func()) func() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fn()
	}()
	return wg.Wait
}

func TestSoakScenarios(t *testing.T) {
	truth := soakTruth()
	if truth <= 0 {
		t.Fatalf("degenerate dataset: exact join size %v", truth)
	}

	// zipf-mix: a Zipf-skewed mix over query templates — the realistic
	// steady-state workload, heavy on a few shapes with a long tail.
	t.Run("zipf-mix", func(t *testing.T) {
		_, base := startSoakServer(t, Config{Concurrency: 4, QueueDepth: 64})
		d := &workload.Driver{BaseURL: base}
		templates := []EstimateRequest{
			{Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Seed: 1},
			{Query: "count(R1)", Synopsis: "main", Seed: 2, Variance: "jackknife"},
			{Query: "count(select(R1, a < 40))", Synopsis: "main", Seed: 3},
			{Query: "sum(R2, a)", Synopsis: "main", Seed: 4},
			{Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Mode: "sequential", TargetRelErr: 0.3, Seed: 5},
		}
		picks := workload.PickSpec{Keys: len(templates), Z: 1}.Picks(rand.New(rand.NewSource(41)), 300)
		wait := background(func() {
			statuses := make([]int, len(picks))
			workload.Fanout(4, len(picks), func(i int) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				tr := d.Estimate(ctx, templates[picks[i]])
				statuses[i] = tr.Status
				if i == len(picks)/2 {
					snapshotUnderLoad(t, d)
				}
			})
			for i, status := range statuses {
				if status != http.StatusOK {
					t.Errorf("background trial %d (template %d): status %d", i, picks[i], status)
				}
			}
		})
		errs, cov := runProbes(t, d)
		wait()
		assertCalibrated(t, errs, cov)
	})

	// bursty: the arrival envelope alternates quiet ticks with bursts
	// that overrun the worker pool, forcing queueing and shed-retry while
	// the probes run.
	t.Run("bursty", func(t *testing.T) {
		_, base := startSoakServer(t, Config{Concurrency: 2, QueueDepth: 8})
		d := &workload.Driver{BaseURL: base}
		env := workload.BurstSpec{Base: 1, Peak: 12, Period: 6, Duty: 2}.Envelope(24)
		wait := background(func() {
			for tick, k := range env {
				workload.Fanout(k, k, func(int) {
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					tr := d.Estimate(ctx, EstimateRequest{
						Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Seed: int64(tick),
					})
					if tr.Status != http.StatusOK {
						t.Errorf("burst tick %d: status %d", tick, tr.Status)
					}
				})
				if tick == len(env)/2 {
					snapshotUnderLoad(t, d)
				}
			}
		})
		errs, cov := runProbes(t, d)
		wait()
		assertCalibrated(t, errs, cov)
		if d.Retries.Load() == 0 {
			t.Log("note: bursts never saturated the queue (no shed retries)")
		}
	})

	// hot-key: a skewed pick stream hammers a handful of synopses while
	// the byte budget is squeezed below their footprint, driving constant
	// eviction and rebuild. Rebuilt answers must stay byte-identical and
	// the probes must stay calibrated through the churn.
	t.Run("hot-key", func(t *testing.T) {
		s, base := startSoakServer(t, Config{Concurrency: 4, QueueDepth: 64})
		d := &workload.Driver{BaseURL: base}
		const hot = 5
		for k := 0; k < hot; k++ {
			status, raw := postJSON(t, base+fmt.Sprintf("/v1/synopses/hot-%d", k), SynopsisRequest{
				Kind: "static", Relations: map[string]int{"R1": 150, "R2": 150}, Seed: 100 + int64(k),
			})
			if status != http.StatusCreated {
				t.Fatalf("create hot-%d: %d %s", k, status, raw)
			}
		}
		// Goldens before the squeeze; the budget then holds roughly half
		// the resident set, so the skewed stream keeps evicting the tail.
		hotReq := func(k int) EstimateRequest {
			return EstimateRequest{
				Query: "count(join(R1, R2, on a = a))", Synopsis: fmt.Sprintf("hot-%d", k), Seed: 7,
			}
		}
		goldens := make([][]byte, hot)
		for k := 0; k < hot; k++ {
			status, raw := postJSON(t, base+"/v1/estimate", hotReq(k))
			if status != http.StatusOK {
				t.Fatalf("golden hot-%d: %d %s", k, status, raw)
			}
			goldens[k] = raw
		}
		s.reg.budget = int64(s.reg.synopsisBytes()) / 2

		picks := workload.PickSpec{Keys: hot, Z: 2}.Picks(rand.New(rand.NewSource(43)), 250)
		wait := background(func() {
			workload.Fanout(4, len(picks), func(i int) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				k := picks[i]
				status, raw, err := d.DoRetry(ctx, "/v1/estimate", hotReq(k))
				if err != nil || status != http.StatusOK {
					t.Errorf("hot trial %d (hot-%d): %d %s (%v)", i, k, status, raw, err)
					return
				}
				if !bytes.Equal(raw, goldens[k]) {
					t.Errorf("hot-%d answer drifted under eviction churn:\ngolden %s\ngot    %s", k, goldens[k], raw)
				}
				if i == len(picks)/2 {
					snapshotUnderLoad(t, d)
				}
			})
		})
		errs, cov := runProbes(t, d)
		wait()
		assertCalibrated(t, errs, cov)
		if got := s.col.Metrics().Counter(mEvictions).Value(); got < 1 {
			t.Errorf("eviction churn never happened (evictions = %v)", got)
		}
		if got := s.col.Metrics().Counter(mRebuilds).Value(); got < 1 {
			t.Errorf("no transparent rebuilds under churn (rebuilds = %v)", got)
		}
	})

	// churn-heavy: a 45%-delete insert/delete storm streams into an
	// incremental synopsis (and its write-ahead log) while the probes
	// estimate from static synopses. The reservoir must track the live
	// population exactly through the churn.
	t.Run("churn-heavy", func(t *testing.T) {
		s, base := startSoakServer(t, Config{Concurrency: 4, QueueDepth: 64})
		d := &workload.Driver{BaseURL: base}
		status, raw := postJSON(t, base+"/v1/synopses/streamed", SynopsisRequest{
			Kind: "incremental", Relations: map[string]int{"R1": 0}, Seed: 17, Capacity: 64,
		})
		if status != http.StatusCreated {
			t.Fatalf("create streamed: %d %s", status, raw)
		}
		ops := workload.Stream(rand.New(rand.NewSource(47)), workload.StreamSpec{
			Rel: "R1", Ops: 400, DeleteFrac: 0.45, Z: 1, Domain: 50,
		})
		wait := background(func() {
			// Events must apply in order — a delete may target the
			// previous insert — so the storm is a single writer lane.
			for i, op := range ops {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				ev := StreamRequest{Op: "insert", Relation: op.Rel, Tuple: []string{op.Tuple[0].String(), op.Tuple[1].String()}}
				if op.Delete {
					ev.Op = "delete"
				}
				status, raw, err := d.DoRetry(ctx, "/v1/synopses/streamed/stream", ev)
				cancel()
				if err != nil || status != http.StatusOK {
					t.Errorf("stream op %d: %d %s (%v)", i, status, raw, err)
				}
				if i == len(ops)/2 {
					snapshotUnderLoad(t, d)
				}
			}
		})
		errs, cov := runProbes(t, d)
		wait()
		assertCalibrated(t, errs, cov)

		// The reservoir knows the live population size exactly.
		want := workload.Materialize("R1", ops).Len()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		tr := d.Estimate(ctx, EstimateRequest{Query: "count(R1)", Synopsis: "streamed", Seed: 3})
		if !tr.OK {
			t.Fatalf("post-churn count: status %d", tr.Status)
		}
		if tr.Value != float64(want) {
			t.Errorf("post-churn count = %v, want exactly %d", tr.Value, want)
		}
		if got := s.col.Metrics().Counter(mWALEvents).Value(); got != float64(len(ops)) {
			t.Errorf("WAL events = %v, want %d", got, len(ops))
		}
	})

	// cancellation-storm: half the background clients abandon their
	// requests after a random delay. The server must shrug — cancelled
	// work answers 499/504 and frees its worker, successes stay correct,
	// and nothing 500s — while the probes stay calibrated. The abandoned
	// requests run deadline mode against a heavy uploaded pair (the
	// calibration dataset answers in microseconds, far inside any cancel
	// delay), so every abandonment genuinely lands mid-flight.
	t.Run("cancellation-storm", func(t *testing.T) {
		s, base := startSoakServer(t, Config{Concurrency: 2, QueueDepth: 32})
		d := &workload.Driver{BaseURL: base}
		hr1, hr2 := workload.JoinPair(rand.New(rand.NewSource(99)), workload.JoinPairSpec{
			Z1: 0.5, Z2: 0.5, Domain: 400, N1: 400_000, N2: 400_000,
		})
		for name, rel := range map[string]*relation.Relation{"H1": hr1, "H2": hr2} {
			var buf bytes.Buffer
			if err := relation.ExportCSV(rel, &buf); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(base+"/v1/relations/"+name, "text/csv", &buf)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("upload %s: %d", name, resp.StatusCode)
			}
		}
		status, raw := postJSON(t, base+"/v1/synopses/hold", SynopsisRequest{
			Kind: "static", Relations: map[string]int{"H1": 50, "H2": 50}, Seed: 9,
		})
		if status != http.StatusCreated {
			t.Fatalf("create hold: %d %s", status, raw)
		}

		plans := workload.CancelSpec{
			N: 60, Frac: 0.4, MinAfter: time.Millisecond, MaxAfter: 25 * time.Millisecond,
		}.Schedule(rand.New(rand.NewSource(53)))
		statuses := make([]int, len(plans))
		wait := background(func() {
			workload.Fanout(4, len(plans), func(i int) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				req := EstimateRequest{Query: "count(join(R1, R2, on a = a))", Synopsis: "main", Seed: int64(i)}
				if plans[i].Cancel {
					var cancelEarly context.CancelFunc
					ctx, cancelEarly = context.WithTimeout(ctx, plans[i].After)
					defer cancelEarly()
					req = EstimateRequest{
						Query: "count(join(H1, H2, on a = a))", Synopsis: "hold",
						Mode: "deadline", BudgetMS: 5000, Seed: int64(i), Variance: "none",
					}
				}
				statuses[i] = d.Estimate(ctx, req).Status
				if i == len(plans)/2 {
					snapshotUnderLoad(t, d)
				}
			})
		})
		errs, cov := runProbes(t, d)
		wait()
		assertCalibrated(t, errs, cov)

		aborted := 0
		for i, status := range statuses {
			switch {
			case status == http.StatusOK:
			case status == 0 || status == StatusClientClosedRequest || status == http.StatusGatewayTimeout:
				// 0: the client tore the connection down before reading
				// any response — the server side of the same abandonment.
				aborted++
			default:
				t.Errorf("storm trial %d: unexpected status %d", i, status)
			}
			if !plans[i].Cancel && status != http.StatusOK {
				t.Errorf("storm trial %d was never cancelled but answered %d", i, status)
			}
		}
		if aborted == 0 {
			t.Error("cancellation storm landed no abandonments; the scenario tested nothing")
		}
		if got := s.col.Metrics().Counter(mCancelled).Value(); got < 1 {
			t.Errorf("server observed no cancellations (mCancelled = %v)", got)
		}
	})
}
