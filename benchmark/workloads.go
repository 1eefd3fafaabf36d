package main

import (
	"fmt"
	"math"
	"math/rand"

	"relest/internal/sampling"
	"relest/internal/server"
)

// synopsisName is the one synopsis every workload estimates from.
const synopsisName = "main"

// checkKind says how an answer to a pool combo is verified.
type checkKind int

const (
	// checkBytes: the body must equal the library's answer for the same
	// seed byte for byte (the repo's service≡library contract).
	checkBytes checkKind = iota
	// checkRepeat: the body must equal the first answer the stack gave for
	// this combo (coordinator answers: per-shard draws are not
	// reproducible from outside, but a pinned seed must repeat exactly).
	checkRepeat
	// checkDeadline: rounds ≥ 1 and lo ≤ value ≤ hi; CI coverage of the
	// exact count is checked over the whole window.
	checkDeadline
	// checkLive: an estimate over a synopsis that a concurrent writer is
	// changing; only 200, a well-formed body and lo ≤ value ≤ hi hold.
	checkLive
)

// class is one request shape of a workload's mix.
type class struct {
	name  string
	share float64
	check checkKind
	// once keeps the class out of the timed window: each of its requests is
	// sent once after it, for verification only.
	once bool
	// make builds the i-th of the class's n requests; the synopsis name is
	// filled in by the caller. Parameters that decide a request's cost
	// (selection bounds, budgets) are spread evenly over their range by i,
	// so every seed's pool has the same shape; only request seeds are drawn.
	make func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest
}

// spec fixes one traffic mix and the stack it runs against. Sizes are
// constants of the benchmark, not flags: two results are comparable only
// if they ran the same data.
type spec struct {
	name string
	// rows per relation and join-attribute domain of the zipf pair
	// (positively correlated, smooth mapping: the value frequencies are
	// the same for every seed, which keeps latencies comparable across
	// seeds; the seed still decides row order, samples and requests).
	rows, domain int
	// sample is the static per-relation sample size (the total the
	// coordinator splits, on a cluster) or the incremental capacity.
	sample      int
	incremental bool
	// shards > 0 boots a coordinator over that many shard nodes.
	shards int
	// persist boots the node with a snapshot directory, so every
	// acknowledged stream event is appended to the WAL and fsynced.
	persist bool
	// preload is the number of rows streamed into each relation of the
	// incremental synopsis during set-up.
	preload  int
	poolSize int
	classes  []class
	// quick marks a tenth-size copy (see tenth): smoke tests only.
	quick bool
}

// tenth returns the workload at a tenth of its data, for smoke tests: the
// same request mix over relations, samples and preloads ten times smaller.
// Runs of it also shorten their run shape (one set-up, fewer traced
// operations and probe iterations); their numbers compare with nothing.
func (w *spec) tenth() *spec {
	small := *w
	small.rows, small.sample, small.preload, small.quick = w.rows/10, w.sample/10, w.preload/10, true
	return &small
}

// combo is one pool entry: a fully specified request and its expectation.
type combo struct {
	class int
	req   server.EstimateRequest
	body  []byte  // the request, marshalled once
	want  []byte  // expected response body (checkBytes, checkRepeat)
	width float64 // its relative CI half-width; 0 where it has none
	truth float64 // exact count (checkDeadline)
}

// spread places i of n evenly over [0, 1): the midpoints of n equal cells.
func spread(i, n int) float64 { return (float64(i) + 0.5) / float64(n) }

// selection returns the i-th of n selection bounds K for `a < K`, covering
// between a tenth and a half of the smooth domain, so no selection is empty
// and none is the whole relation.
func selection(w *spec, i, n int) int {
	lo, hi := w.domain/10, w.domain/2
	return lo + int(float64(hi-lo)*spread(i, n))
}

func requestSeed(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<30) }

const joinAll = "count(join(R1, R2, on a = a))"

func joinSelected(k int) string {
	return fmt.Sprintf("count(join(select(R1, a < %d), R2, on a = a))", k)
}

func selectCount(k int) string { return fmt.Sprintf("count(select(R1, a < %d))", k) }

func selectSum(k int) string { return fmt.Sprintf("sum(select(R1, a < %d), id)", k) }

// multiTerm rotates four set-operation shapes over overlapping selections
// of R1 joined to R2; they normalize to 2, 3, 3 and 7 polynomial terms that
// all share the R1⋈R2 join prefix, which is what CSE exists for.
func multiTerm(w *spec, i, n int) string {
	k1 := selection(w, i, n)
	k2 := k1 / 2
	k3 := k1 + w.domain/4
	a := fmt.Sprintf("select(R1, a < %d)", k1)
	b := fmt.Sprintf("select(R1, a >= %d)", k2)
	c := fmt.Sprintf("select(R1, a > %d)", k3)
	var inner string
	switch i % 4 {
	case 0:
		inner = fmt.Sprintf("except(%s, select(R1, a < %d))", a, k2)
	case 1:
		inner = fmt.Sprintf("union(%s, %s)", a, b)
	case 2:
		inner = fmt.Sprintf("union(intersect(%s, %s), %s)", a, b, c)
	default:
		inner = fmt.Sprintf("union(union(%s, %s), %s)", a, b, c)
	}
	return fmt.Sprintf("count(join(%s, R2, on a = a))", inner)
}

// deadlineBudgetMS is the i-th of n whole-millisecond budgets spread
// log-uniformly over 2 … 20 ms. Log-uniform, because each round doubles the
// sample: with the budgets spread evenly over the doublings, some request's
// round ends near every point of the range and the window's mean CI width
// is a smooth function of speed, not a step function. Every millisecond
// value, because latency follows the budget: a few distinct budgets would
// leave gaps in the latency distribution for the median to jump across.
func deadlineBudgetMS(i, n int) int64 {
	return int64(2 * math.Pow(21.0/2, spread(i, n)))
}

// probeBudgetsMS are the budgets the deadline probe walks, log-spaced over
// the same range.
var probeBudgetsMS = []int64{2, 3, 4, 5, 6, 8, 10, 12, 15, 20}

var workloads = []*spec{
	{
		name: "light_sn",
		rows: 20_000, domain: 2_000, sample: 200, poolSize: 200,
		classes: []class{
			{name: "sketch_join", share: 0.4, make: func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest {
				return server.EstimateRequest{Query: joinAll, TierPolicy: "auto", Seed: requestSeed(rng)}
			}},
			{name: "select_count", share: 0.3, make: func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest {
				return server.EstimateRequest{Query: selectCount(selection(w, i, n)), Seed: requestSeed(rng)}
			}},
			{name: "sample_join", share: 0.2, make: func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest {
				return server.EstimateRequest{Query: joinSelected(selection(w, i, n)), Seed: requestSeed(rng)}
			}},
			{name: "select_sum", share: 0.1, make: func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest {
				return server.EstimateRequest{Query: selectSum(selection(w, i, n)), Seed: requestSeed(rng)}
			}},
		},
	},
	{
		name: "heavy_sn",
		rows: 100_000, domain: 2_000, sample: 2_000, poolSize: 120,
		classes: []class{
			{name: "join_jackknife", share: 0.35, make: func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest {
				return server.EstimateRequest{Query: joinSelected(selection(w, i, n)), Variance: "jackknife", Seed: requestSeed(rng)}
			}},
			{name: "multi_term", share: 0.25, make: func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest {
				return server.EstimateRequest{Query: multiTerm(w, i, n), Seed: requestSeed(rng)}
			}},
			{name: "join_split", share: 0.2, make: func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest {
				return server.EstimateRequest{Query: joinSelected(selection(w, i, n)), Variance: "split-sample", Seed: requestSeed(rng)}
			}},
			{name: "agg_join", share: 0.2, make: func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest {
				agg := "sum"
				if i%2 == 1 {
					agg = "avg"
				}
				q := fmt.Sprintf("%s(join(select(R1, a < %d), R2, on a = a), id)", agg, selection(w, i, n))
				return server.EstimateRequest{Query: q, Seed: requestSeed(rng)}
			}},
		},
	},
	{
		name: "deadline_sn",
		rows: 100_000, domain: 2_000, sample: 100, poolSize: 200,
		classes: []class{
			{name: "deadline", share: 0.9, check: checkDeadline, make: func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest {
				// Eight selection bounds only: every distinct query needs
				// an exact count over the full relations. One worker per
				// request: two clients on two cores get a core each, instead
				// of two parallel rounds fighting over both (which spread the
				// latencies of unchanged code by a fifth).
				q := joinAll
				if i%2 == 1 {
					q = joinSelected(w.domain/4 + (i/2%8)*w.domain/16)
				}
				return server.EstimateRequest{
					Query: q, Mode: "deadline", Seed: requestSeed(rng),
					BudgetMS: deadlineBudgetMS(i, n), Workers: 1,
				}
			}},
			// Sequential mode is verified byte for byte but not timed: how
			// far it grows its samples is decided by the luck of the
			// 100-row pilot, so its cost is a property of the seed (medians
			// from 1.7 to 5.5 ms over ten seeds), not of the program.
			{name: "sequential", share: 0.1, once: true, make: func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest {
				target := 0.10
				if i%2 == 1 {
					target = 0.20
				}
				return server.EstimateRequest{
					Query: joinSelected(selection(w, i, n)), Mode: "sequential",
					TargetRelErr: target, Seed: requestSeed(rng),
				}
			}},
		},
	},
	{
		name: "coord_s2",
		rows: 20_000, domain: 2_000, sample: 1_000, shards: 2, poolSize: 200,
		classes: []class{
			{name: "key_join", share: 0.5, check: checkRepeat, make: func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest {
				return server.EstimateRequest{Query: joinSelected(selection(w, i, n)), Seed: requestSeed(rng)}
			}},
			{name: "select_count", share: 0.3, check: checkRepeat, make: func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest {
				return server.EstimateRequest{Query: selectCount(selection(w, i, n)), Seed: requestSeed(rng)}
			}},
			{name: "select_sum", share: 0.2, check: checkRepeat, make: func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest {
				return server.EstimateRequest{Query: selectSum(selection(w, i, n)), Seed: requestSeed(rng)}
			}},
		},
	},
	{
		name: "stream_rw",
		rows: 20_000, domain: 2_000, sample: 1_000, incremental: true, persist: true, preload: 1_500, poolSize: 100,
		classes: []class{
			{name: "live_join", share: 0.5, check: checkLive, make: func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest {
				return server.EstimateRequest{Query: joinSelected(selection(w, i, n)), Seed: requestSeed(rng)}
			}},
			{name: "live_select", share: 0.3, check: checkLive, make: func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest {
				return server.EstimateRequest{Query: selectCount(selection(w, i, n)), Seed: requestSeed(rng)}
			}},
			{name: "live_sum", share: 0.2, check: checkLive, make: func(rng *rand.Rand, w *spec, i, n int) server.EstimateRequest {
				return server.EstimateRequest{Query: selectSum(selection(w, i, n)), Seed: requestSeed(rng)}
			}},
		},
	},
}

func workloadByName(name string) *spec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Seed substreams: every random decision of a run derives from the one
// --seed through a labelled substream, so adding a consumer never shifts
// the others.
const (
	streamData = iota
	streamSynopsis
	streamPool
	streamSequence
	streamEvents
	streamProbes
)

type seeds struct{ src *sampling.Source }

func newSeeds(seed int64) seeds { return seeds{sampling.NewSource(seed)} }

func (s seeds) rand(stream int) *rand.Rand { return s.src.Rand(stream) }

// seed returns a positive derived seed for requests that carry one on the
// wire (generate, synopsis).
func (s seeds) seed(stream int) int64 { return 1 + int64(uint64(s.src.StreamSeed(stream))%(1<<30)) }

// buildPool draws the workload's request pool: each class gets its share of
// the pool, so cycling through the pool realizes the mix exactly.
func buildPool(w *spec, s seeds) ([]combo, error) {
	rng := s.rand(streamPool)
	var pool []combo
	for ci, c := range w.classes {
		n := int(c.share*float64(w.poolSize) + 0.5)
		for i := 0; i < n; i++ {
			req := c.make(rng, w, i, n)
			req.Synopsis = synopsisName
			body, err := marshalRequest(req)
			if err != nil {
				return nil, err
			}
			pool = append(pool, combo{class: ci, req: req, body: body})
		}
	}
	return pool, nil
}

// opSequence returns rounds seeded permutations of the window's combos (the
// pool without its once-only classes) back to back: every combo runs equally
// often (the mix is exact over any whole number of rounds) and in an order
// that carries no structure.
func opSequence(w *spec, pool []combo, rounds int, s seeds) []int {
	var timed []int
	for i, c := range pool {
		if !w.classes[c.class].once {
			timed = append(timed, i)
		}
	}
	rng := s.rand(streamSequence)
	seq := make([]int, 0, len(timed)*rounds)
	for r := 0; r < rounds; r++ {
		for _, k := range rng.Perm(len(timed)) {
			seq = append(seq, timed[k])
		}
	}
	return seq
}
