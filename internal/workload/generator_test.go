package workload

import (
	"math/rand"
	"testing"
	"time"
)

// TestBurstEnvelopeShape pins the bursty arrival generator: the envelope
// is exactly periodic — Duty peak ticks then quiet ticks, every Period —
// and deterministic (no jitter to replay).
func TestBurstEnvelopeShape(t *testing.T) {
	for _, tc := range []struct {
		name      string
		spec      BurstSpec
		ticks     int
		wantTotal int
	}{
		{"defaults", BurstSpec{}, 16, 2*8 + 6 + 2*8 + 6},
		{"narrow-spike", BurstSpec{Base: 1, Peak: 10, Period: 5, Duty: 1}, 10, 10 + 4 + 10 + 4},
		{"square-wave", BurstSpec{Base: 2, Peak: 6, Period: 4, Duty: 2}, 8, 2*6 + 2*2 + 2*6 + 2*2},
		{"duty-clamped", BurstSpec{Base: 1, Peak: 3, Period: 2, Duty: 9}, 4, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := tc.spec.Envelope(tc.ticks)
			if len(env) != tc.ticks {
				t.Fatalf("len(env) = %d, want %d", len(env), tc.ticks)
			}
			spec := tc.spec.withDefaults()
			total := 0
			for i, c := range env {
				total += c
				want := spec.Base
				if i%spec.Period < spec.Duty {
					want = spec.Peak
				}
				if c != want {
					t.Errorf("tick %d = %d, want %d", i, c, want)
				}
			}
			if total != tc.wantTotal {
				t.Errorf("total trials = %d, want %d", total, tc.wantTotal)
			}
		})
	}
}

// TestPickSpecSkew pins the Zipf key picker's distribution shape: rank 0
// is the hottest, hotness decreases with rank, and raising Z concentrates
// mass on the head — the knob the hot-key scenario turns.
func TestPickSpecSkew(t *testing.T) {
	const n = 20_000
	counts := func(z float64, keys int) []int {
		picks := PickSpec{Keys: keys, Z: z}.Picks(rand.New(rand.NewSource(1)), n)
		c := make([]int, keys)
		for _, k := range picks {
			if k < 0 || k >= keys {
				t.Fatalf("pick %d outside [0, %d)", k, keys)
			}
			c[k]++
		}
		return c
	}

	for _, tc := range []struct {
		name             string
		z                float64
		keys             int
		minHead, maxHead float64 // share of picks on key 0
	}{
		{"uniform", 0, 8, 0.10, 0.15},   // 1/8 = 12.5%
		{"skewed", 1, 8, 0.30, 0.45},    // 1/H_8 ≈ 36.8%
		{"hot-key", 2.5, 8, 0.70, 0.85}, // 1/Σ(1/r^2.5) over 8 ranks ≈ 78.7%
		{"two-keys", 1, 2, 0.60, 0.72},  // 2/3 ≈ 66.7%
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := counts(tc.z, tc.keys)
			head := float64(c[0]) / n
			if head < tc.minHead || head > tc.maxHead {
				t.Errorf("head share = %.3f, want within [%.2f, %.2f] (counts %v)", head, tc.minHead, tc.maxHead, c)
			}
			if tc.z > 0 && c[0] <= c[tc.keys-1] {
				t.Errorf("skew %v: head count %d not above tail count %d", tc.z, c[0], c[tc.keys-1])
			}
		})
	}

	// Same seed, same sequence: the schedule is replayable.
	a := PickSpec{Keys: 8, Z: 1}.Picks(rand.New(rand.NewSource(9)), 500)
	b := PickSpec{Keys: 8, Z: 1}.Picks(rand.New(rand.NewSource(9)), 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("picks diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestCancelScheduleTiming pins the cancellation-storm generator: the
// cancelled fraction tracks Frac, every delay lies in [MinAfter,
// MaxAfter], and a pinned seed reproduces the schedule exactly.
func TestCancelScheduleTiming(t *testing.T) {
	for _, tc := range []struct {
		name             string
		spec             CancelSpec
		minFrac, maxFrac float64
	}{
		{"none", CancelSpec{N: 400, Frac: 0}, 0, 0},
		{"half", CancelSpec{N: 400, Frac: 0.5, MinAfter: 2 * time.Millisecond, MaxAfter: 20 * time.Millisecond}, 0.42, 0.58},
		{"all", CancelSpec{N: 400, Frac: 1, MinAfter: time.Millisecond, MaxAfter: time.Millisecond}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plans := tc.spec.Schedule(rand.New(rand.NewSource(3)))
			if len(plans) != tc.spec.N {
				t.Fatalf("len(plans) = %d, want %d", len(plans), tc.spec.N)
			}
			cancels := 0
			for i, p := range plans {
				if !p.Cancel {
					if p.After != 0 {
						t.Errorf("plan %d: pass-through trial has delay %v", i, p.After)
					}
					continue
				}
				cancels++
				if p.After < tc.spec.MinAfter || p.After > tc.spec.MaxAfter {
					t.Errorf("plan %d: delay %v outside [%v, %v]", i, p.After, tc.spec.MinAfter, tc.spec.MaxAfter)
				}
			}
			frac := float64(cancels) / float64(tc.spec.N)
			if frac < tc.minFrac || frac > tc.maxFrac {
				t.Errorf("cancel fraction = %.3f, want within [%.2f, %.2f]", frac, tc.minFrac, tc.maxFrac)
			}
		})
	}

	// Replayability: the same seed reproduces the identical storm.
	spec := CancelSpec{N: 100, Frac: 0.3, MinAfter: time.Millisecond, MaxAfter: 9 * time.Millisecond}
	a := spec.Schedule(rand.New(rand.NewSource(77)))
	b := spec.Schedule(rand.New(rand.NewSource(77)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestChurnStreamRatio pins the churn generator's insert/delete mix: the
// realized delete fraction tracks DeleteFrac, deletions only ever target
// live tuples (the stream is well-formed), and the surviving population
// equals inserts minus deletes.
func TestChurnStreamRatio(t *testing.T) {
	for _, tc := range []struct {
		name             string
		frac             float64
		minFrac, maxFrac float64
	}{
		{"insert-only", 0, 0, 0},
		{"light-churn", 0.2, 0.15, 0.25},
		{"churn-heavy", 0.45, 0.40, 0.50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := StreamSpec{Rel: "R", Ops: 4000, DeleteFrac: tc.frac, Z: 1, Domain: 100}
			ops := Stream(rand.New(rand.NewSource(5)), spec)
			if len(ops) != spec.Ops {
				t.Fatalf("len(ops) = %d, want %d", len(ops), spec.Ops)
			}
			live := map[string]bool{}
			inserts, deletes := 0, 0
			for i, op := range ops {
				k := op.Tuple.Key(nil)
				if op.Delete {
					deletes++
					if !live[k] {
						t.Fatalf("op %d deletes a tuple that is not live", i)
					}
					delete(live, k)
				} else {
					inserts++
					if live[k] {
						t.Fatalf("op %d re-inserts a live tuple", i)
					}
					live[k] = true
				}
			}
			frac := float64(deletes) / float64(len(ops))
			if frac < tc.minFrac || frac > tc.maxFrac {
				t.Errorf("delete fraction = %.3f, want within [%.2f, %.2f]", frac, tc.minFrac, tc.maxFrac)
			}
			if got := Materialize("R", ops).Len(); got != inserts-deletes {
				t.Errorf("surviving population = %d, want %d", got, inserts-deletes)
			}
		})
	}
}
