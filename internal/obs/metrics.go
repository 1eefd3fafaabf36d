// Package obs is the engine's observability layer: a zero-dependency
// metrics registry (counters, gauges, fixed-bucket histograms), lightweight
// spans with monotonic durations and parent links, and the Recorder
// interface the estimation engine, worker pool, plan cache, planner and
// samplers report into.
//
// Design constraints, in order:
//
//   - Instrumentation must never change an estimate. Recorders observe
//     values; they never touch RNG streams, accumulation order, or
//     scheduling decisions. The engine's bit-identical-estimates contract
//     is enforced by test with a live recorder attached.
//   - The disabled path must be free. The default recorder is Nop, whose
//     methods are empty, allocate nothing, and read no clock; call sites
//     may stay unconditionally instrumented.
//   - Hot paths are lock-free. Metric instruments update through atomics;
//     the registry takes a lock only to create an instrument, and a
//     read-lock to look one up. Span bookkeeping takes a mutex, but spans
//     are per-term/per-replicate events, not per-tuple.
//
// Exposition is pull-at-end rather than scrape-loop: Metrics renders a
// Prometheus-text-format dump (WritePrometheus) and a JSON snapshot
// (WriteJSON), both in sorted name order so output is reproducible.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 updated with compare-and-swap on its bit
// pattern — the standard lock-free float accumulator.
type atomicFloat struct {
	bits atomic.Uint64
}

func (a *atomicFloat) Add(d float64) {
	for {
		old := a.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if a.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (a *atomicFloat) Store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) Load() float64   { return math.Float64frombits(a.bits.Load()) }

// Counter is a monotonically increasing metric (enforce monotonicity at
// the call site; Add with a negative delta is not checked).
type Counter struct {
	v atomicFloat
}

// Add increments the counter.
func (c *Counter) Add(d float64) { c.v.Add(d) }

// Value returns the current total.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a metric that can go up and down; Set overwrites.
type Gauge struct {
	v atomicFloat
}

// Set stores the current value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add adjusts the gauge by a delta.
func (g *Gauge) Add(d float64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: counts[i] holds observations
// v ≤ bounds[i] (exclusive of earlier buckets); the last slot is the
// implicit +Inf bucket. Observations are atomic; bucket bounds are fixed
// at creation.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64
	sum    atomicFloat
	total  atomic.Uint64
}

// DefBuckets is the default bound set, tuned for durations in seconds
// spanning microsecond terms to multi-second full runs.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 1, 5, 30,
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose bound is ≥ v (Prometheus `le` semantics); misses
	// land in the +Inf slot.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Storage-footprint gauge names, defined here because several producers
// report them — the estimator (per estimate), the server (on registry
// changes) and cmd/relest (at load time) — and one series name must mean
// one thing everywhere it is exposed.
const (
	// MetricRelationBytes gauges the resident column storage of all
	// registered base relations.
	MetricRelationBytes = "relest_relation_bytes"
	// MetricSynopsisBytes gauges the resident sample storage of the
	// synopsis in use; zero-copy sample views count only their index
	// vectors, which is what makes the columnar memory win visible here.
	MetricSynopsisBytes = "relest_synopsis_bytes"
)

// Metrics is the instrument registry. Instruments are created on first
// use and live for the registry's lifetime; names follow Prometheus
// conventions (`relest_<noun>_<unit>[_total]`) and may carry inline
// labels (`name{k="v"}`), which the exposition passes through verbatim.
type Metrics struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.RLock()
	c, ok := m.counters[name]
	m.mu.RUnlock()
	if ok {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok = m.counters[name]; !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (m *Metrics) Gauge(name string) *Gauge {
	m.mu.RLock()
	g, ok := m.gauges[name]
	m.mu.RUnlock()
	if ok {
		return g
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g, ok = m.gauges[name]; !ok {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (nil bounds = DefBuckets). Bounds passed after
// creation are ignored: the first caller fixes the buckets.
func (m *Metrics) Histogram(name string, bounds []float64) *Histogram {
	m.mu.RLock()
	h, ok := m.hists[name]
	m.mu.RUnlock()
	if ok {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok = m.hists[name]; !ok {
		h = newHistogram(bounds)
		m.hists[name] = h
	}
	return h
}
