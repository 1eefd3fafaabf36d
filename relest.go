// Package relest is a Go implementation of the sampling-based statistical
// estimators for relational algebra expressions of Hou, Özsoyoğlu and
// Taneja (PODS 1988): unbiased point estimators, variance estimators and
// confidence intervals for COUNT(E) over arbitrary π-free relational
// algebra expressions E — selection, product, θ-join, union, intersection,
// difference — computed from simple random samples of the base relations,
// plus Goodman-style distinct-count estimators for projections, sequential
// (double) sampling, deadline-bounded estimation, and an incrementally
// maintained synopsis for insert/delete streams.
//
// # Quick start
//
//	r := relest.NewRelation("orders", relest.MustSchema(
//		relest.Col("customer", relest.KindInt),
//		relest.Col("amount", relest.KindInt),
//	))
//	// ... append tuples ...
//
//	syn := relest.NewSynopsis()
//	syn.AddDrawn(r, 1000, rng)                     // SRSWOR sample of 1000 rows
//	e := relest.Must(relest.Select(relest.BaseOf(r),
//		relest.Cmp{Col: "amount", Op: relest.GT, Val: relest.Int(100)}))
//	est := relest.New(syn)                         // tiered estimation handle
//	res, err := est.Count(ctx, relest.Request{Expr: e})
//	// res.Value ± res.StdErr, CI [res.Lo, res.Hi], answered by res.Tier.Answered
//
// The handle answers each counting-polynomial term from the cheapest
// synopsis tier that meets the requested precision: AGMS sketch first
// (equi-join and self-join shapes), escalating per term to the
// sample-based counting polynomial (see DESIGN.md §14).
//
// The estimators are unbiased (not just consistent): over the randomness of
// the samples, the expected value of the estimate equals COUNT(E) exactly,
// including for expressions that use the same relation several times
// (self-joins, intersections), which are handled with falling-factorial
// pattern weights. See DESIGN.md for the construction and EXPERIMENTS.md
// for the measured behaviour.
//
// This package is a facade: the implementation lives in internal packages
// (relation storage, algebra and normalization, sampling, statistics, the
// estimators, and the baseline synopses used by the benchmark suite).
package relest

import (
	"context"
	"io"
	"math/rand"
	"time"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/obs"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/workload"
)

// Data model --------------------------------------------------------------

// Core data-model types, re-exported from the storage engine.
type (
	// Value is one typed datum (int, float, string or null).
	Value = relation.Value
	// Kind enumerates value types.
	Kind = relation.Kind
	// Column is a named, typed attribute.
	Column = relation.Column
	// Schema is an ordered list of uniquely named columns.
	Schema = relation.Schema
	// Tuple is one materialized row — the explicit escape hatch; hot paths
	// read rows in place through Row.
	Tuple = relation.Tuple
	// Row is a lightweight handle onto one stored row, read in place from
	// column storage (Relation.Row, Relation.EachRow).
	Row = relation.Row
	// Relation is an in-memory bag of tuples with a schema, stored
	// column-wise.
	Relation = relation.Relation
)

// Value kinds.
const (
	KindNull   = relation.KindNull
	KindInt    = relation.KindInt
	KindFloat  = relation.KindFloat
	KindString = relation.KindString
)

// Int returns an integer value.
func Int(v int64) Value { return relation.Int(v) }

// Float returns a float value.
func Float(v float64) Value { return relation.Float(v) }

// Str returns a string value.
func Str(v string) Value { return relation.Str(v) }

// Null returns the null value.
func Null() Value { return relation.Null() }

// Col builds a Column.
func Col(name string, kind Kind) Column { return Column{Name: name, Kind: kind} }

// NewSchema builds a schema, validating column names.
func NewSchema(cols ...Column) (*Schema, error) { return relation.NewSchema(cols...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(cols ...Column) *Schema { return relation.MustSchema(cols...) }

// NewRelation creates an empty relation.
func NewRelation(name string, schema *Schema) *Relation { return relation.New(name, schema) }

// ImportCSV reads a relation from CSV (header row required; nil schema
// infers column kinds).
func ImportCSV(name string, r io.Reader, schema *Schema) (*Relation, error) {
	return relation.ImportCSV(name, r, schema)
}

// ImportOptions configures ImportCSVOptions (schema, size limit).
type ImportOptions = relation.ImportOptions

// ImportCSVOptions reads a relation from CSV record-by-record with a
// configurable size limit (see relation.ImportCSVOptions).
func ImportCSVOptions(name string, r io.Reader, opts ImportOptions) (*Relation, error) {
	return relation.ImportCSVOptions(name, r, opts)
}

// ExportCSV writes a relation as CSV.
func ExportCSV(rel *Relation, w io.Writer) error { return relation.ExportCSV(rel, w) }

// Algebra -----------------------------------------------------------------

// Expression and predicate types, re-exported from the algebra layer.
type (
	// Expr is a relational algebra expression.
	Expr = algebra.Expr
	// Predicate is a boolean condition over tuples.
	Predicate = algebra.Predicate
	// Cmp compares a column with a constant.
	Cmp = algebra.Cmp
	// ColCmp compares two columns.
	ColCmp = algebra.ColCmp
	// And is a conjunction of predicates.
	And = algebra.And
	// Or is a disjunction of predicates.
	Or = algebra.Or
	// Not negates a predicate.
	Not = algebra.Not
	// FuncOnCols is an arbitrary predicate over named columns.
	FuncOnCols = algebra.FuncOnCols
	// On is one equi-join column pair.
	On = algebra.On
	// Catalog resolves relation names (the exact evaluator's input).
	Catalog = algebra.Catalog
	// MapCatalog is a map-backed Catalog.
	MapCatalog = algebra.MapCatalog
)

// Comparison operators.
const (
	EQ = algebra.EQ
	NE = algebra.NE
	LT = algebra.LT
	LE = algebra.LE
	GT = algebra.GT
	GE = algebra.GE
)

// Base creates a leaf referencing a named base relation.
func Base(name string, schema *Schema) *Expr { return algebra.Base(name, schema) }

// BaseOf creates a leaf for a stored relation.
func BaseOf(r *Relation) *Expr { return algebra.BaseOf(r) }

// Select creates σ_p(child).
func Select(child *Expr, p Predicate) (*Expr, error) { return algebra.Select(child, p) }

// Project creates π_cols(child) with duplicate elimination.
func Project(child *Expr, cols ...string) (*Expr, error) { return algebra.Project(child, cols...) }

// Product creates child × right (rightPrefix disambiguates column names).
func Product(left, right *Expr, rightPrefix string) (*Expr, error) {
	return algebra.Product(left, right, rightPrefix)
}

// Join creates an equi-join with optional residual theta predicate.
func Join(left, right *Expr, on []On, theta Predicate, rightPrefix string) (*Expr, error) {
	return algebra.Join(left, right, on, theta, rightPrefix)
}

// Union creates left ∪ right (set semantics; equal layouts required).
func Union(left, right *Expr) (*Expr, error) { return algebra.Union(left, right) }

// Intersect creates left ∩ right.
func Intersect(left, right *Expr) (*Expr, error) { return algebra.Intersect(left, right) }

// Diff creates left − right.
func Diff(left, right *Expr) (*Expr, error) { return algebra.Diff(left, right) }

// Must unwraps an (Expr, error) pair, panicking on error.
func Must(e *Expr, err error) *Expr { return algebra.Must(e, err) }

// ExactCount evaluates COUNT(e) exactly over full relations — the ground
// truth the estimators approximate.
func ExactCount(e *Expr, cat Catalog) (int64, error) { return algebra.Count(e, cat) }

// ExactEval evaluates e exactly and returns the result relation.
func ExactEval(e *Expr, cat Catalog) (*Relation, error) {
	//lint:ignore materialize the facade promises a fully materialized result the caller owns
	return algebra.Eval(e, cat)
}

// Estimation ---------------------------------------------------------------

// The estimation handle: the package's primary query surface. Build one
// with New over a synopsis, then issue requests:
//
//	est := relest.New(syn)
//	res, err := est.Count(ctx, relest.Request{Expr: e})
//	// res.Value ± res.StdErr, CI [res.Lo, res.Hi], res.Tier.Answered
//
// A request carries the expression (and, for Sum/Avg/GroupCount, the
// column); the handle carries everything else: options, the precision
// target (WithPrecision) and the tier policy (WithTierPolicy — TierAuto
// answers from the sketch tier when it is precise enough, escalating per
// term to the sample tier; TierSampleOnly answers from the sample-based
// counting polynomial alone). Bound a request's wall time through ctx.
type (
	// Estimator is the unified estimation handle (Count/Sum/Avg/
	// GroupCount over one synopsis, options and tier policy).
	Estimator = estimator.Estimator
	// EstimatorOption configures New (WithOptions, WithTierPolicy,
	// WithPrecision).
	EstimatorOption = estimator.EstimatorOption
	// Request is one estimation request against a handle.
	Request = estimator.Request
	// Result is an estimate plus the tier(s) that answered it.
	Result = estimator.Result
	// TierPolicy selects which synopsis tiers a request may use.
	TierPolicy = estimator.TierPolicy
	// TierReport records which tier(s) produced an estimate.
	TierReport = estimator.TierReport
)

// Tier policies.
const (
	// TierDefault (the zero value) selects TierAuto in New.
	TierDefault = estimator.TierDefault
	// TierAuto tries the sketch tier first, escalating per term.
	TierAuto = estimator.TierAuto
	// TierSketchOnly fails on any term the sketch tier cannot answer.
	TierSketchOnly = estimator.TierSketchOnly
	// TierSampleOnly answers from the sample-based counting polynomial alone.
	TierSampleOnly = estimator.TierSampleOnly
)

// DefaultPrecision is the target relative CI half-width used when the
// handle sets none.
const DefaultPrecision = estimator.DefaultPrecision

// Tier names reported in Result.Tier.Answered.
const (
	TierAnsweredSketch = estimator.TierAnsweredSketch
	TierAnsweredSample = estimator.TierAnsweredSample
	TierAnsweredMixed  = estimator.TierAnsweredMixed
)

// New builds an estimation handle over the synopsis. Unless constructed
// WithTierPolicy(TierSampleOnly) it also builds the synopsis's sketch
// tier (per-relation, per-column AGMS sketches and KMV distinct
// summaries; idempotent, one base-relation scan the first time).
func New(syn *Synopsis, opts ...EstimatorOption) *Estimator {
	return estimator.NewEstimator(syn, opts...)
}

// WithOptions sets the handle's evaluation options.
func WithOptions(opts Options) EstimatorOption { return estimator.WithOptions(opts) }

// WithTierPolicy sets the handle's default tier policy (TierAuto when
// unset).
func WithTierPolicy(p TierPolicy) EstimatorOption { return estimator.WithTierPolicy(p) }

// WithPrecision sets the handle's default sketch-acceptance precision
// (DefaultPrecision when unset).
func WithPrecision(w float64) EstimatorOption { return estimator.WithPrecision(w) }

// Estimation types, re-exported from the estimator core.
type (
	// Synopsis holds one uniform sample per base relation plus exact
	// cardinalities; it is the estimators' only input.
	Synopsis = estimator.Synopsis
	// Estimate is a point estimate with variance and confidence interval.
	Estimate = estimator.Estimate
	// Options configures variance method, confidence level and CI type.
	Options = estimator.Options
	// VarianceMethod selects how variance is estimated.
	VarianceMethod = estimator.VarianceMethod
	// CIMethod selects the confidence-interval construction.
	CIMethod = estimator.CIMethod
	// DistinctMethod selects the distinct-count estimator.
	DistinctMethod = estimator.DistinctMethod
	// SequentialOptions configures double sampling.
	SequentialOptions = estimator.SequentialOptions
	// SequentialResult reports a double-sampling run.
	SequentialResult = estimator.SequentialResult
	// DeadlineOptions configures deadline-bounded estimation.
	DeadlineOptions = estimator.DeadlineOptions
	// DeadlineStep is one round of a deadline run.
	DeadlineStep = estimator.DeadlineStep
	// IncrementalOptions configures an incremental synopsis.
	IncrementalOptions = estimator.IncrementalOptions
	// Incremental maintains samples over insert/delete streams.
	Incremental = estimator.Incremental
	// FreqOfFreq is the sample summary distinct estimators consume.
	FreqOfFreq = estimator.FreqOfFreq
)

// Observability, re-exported from the metrics layer. Recording is passive:
// attaching a Recorder leaves every estimate bit-identical to the
// unrecorded run (see DESIGN.md §8).
type (
	// Recorder receives counters, gauges, histograms and spans from a
	// running estimation; pass one as Options.Recorder. A nil Recorder
	// costs nothing.
	Recorder = obs.Recorder
	// Collector is the standard Recorder: lock-free metrics plus optional
	// span capture, exposable as Prometheus text or JSON via its Metrics()
	// registry and Trace().
	Collector = obs.Collector
)

// NewCollector returns a live metrics Collector to pass as
// Options.Recorder; call EnableTrace on it to also capture spans.
func NewCollector() *Collector { return obs.NewCollector() }

// Variance methods.
const (
	VarAuto        = estimator.VarAuto
	VarNone        = estimator.VarNone
	VarAnalytic    = estimator.VarAnalytic
	VarSplitSample = estimator.VarSplitSample
	VarJackknife   = estimator.VarJackknife
	// VarSketch marks an estimate answered entirely by the sketch tier.
	VarSketch = estimator.VarSketch
)

// Confidence-interval constructions.
const (
	CINormal    = estimator.CINormal
	CIChebyshev = estimator.CIChebyshev
)

// Distinct-count estimators.
const (
	DistinctGoodman   = estimator.DistinctGoodman
	DistinctScaleUp   = estimator.DistinctScaleUp
	DistinctSampleD   = estimator.DistinctSampleD
	DistinctJackknife = estimator.DistinctJackknife
	DistinctGEE       = estimator.DistinctGEE
)

// NewSynopsis creates an empty synopsis.
func NewSynopsis() *Synopsis { return estimator.NewSynopsis() }

// Draw builds a synopsis by sampling the given fraction from every
// relation (minimum minSize rows each).
func Draw(rels []*Relation, fraction float64, minSize int, rng *rand.Rand) (*Synopsis, error) {
	return estimator.Draw(rels, fraction, minSize, rng)
}

// AvgResult is the ratio estimate AVG = SUM/COUNT with its components.
type AvgResult = estimator.AvgResult

// GroupEstimate is one group's estimated count from Estimator.GroupCount.
type GroupEstimate = estimator.GroupEstimate

// Distinct estimates the number of distinct values of the given columns of
// a base relation (COUNT(π_cols(rel))).
func Distinct(syn *Synopsis, relName string, cols []string, method DistinctMethod) (float64, error) {
	return estimator.Distinct(syn, relName, cols, method)
}

// SequentialCountContext runs double sampling toward a target relative
// error under a context: cancellation is polled before each phase and a
// cancelled run returns a non-nil error, never a partial result. Sample
// extensions draw from opts.RNG, or a generator seeded with opts.Seed
// when RNG is nil. The synopsis is only read: the run grows samples of its
// own, and SampleSizes reports how far.
func SequentialCountContext(ctx context.Context, e *Expr, syn *Synopsis, opts SequentialOptions) (SequentialResult, error) {
	return estimator.SequentialCountContext(ctx, e, syn, opts)
}

// DeadlineCountContext grows samples until the time budget expires and
// returns the estimate available at the deadline. Budget expiry is the
// normal path (the running round completes and its estimate is returned);
// context cancellation aborts between sampling rounds with a non-nil
// error and no partial estimate. Servers map a request's deadline to
// opts.Budget and its cancellation to ctx. The synopsis is only read: the
// run grows samples of its own, and each DeadlineStep reports their sizes,
// so concurrent runs may share one synopsis.
func DeadlineCountContext(ctx context.Context, e *Expr, syn *Synopsis, opts DeadlineOptions) (Estimate, []DeadlineStep, error) {
	return estimator.DeadlineCountContext(ctx, e, syn, opts)
}

// NewIncrementalWithOptions creates an incrementally maintained synopsis
// from options; sampling decisions draw from opts.RNG, or a generator
// seeded with opts.Seed when RNG is nil.
func NewIncrementalWithOptions(opts IncrementalOptions) *Incremental {
	return estimator.NewIncrementalWithOptions(opts)
}

// Workloads ----------------------------------------------------------------

// Workload-generation types for experiments and demos.
type (
	// JoinPairSpec describes a correlated pair of Zipf relations.
	JoinPairSpec = workload.JoinPairSpec
	// ClusterSpec describes clustered correlated data.
	ClusterSpec = workload.ClusterSpec
	// Correlation relates the two mappings of a join pair.
	Correlation = workload.Correlation
	// Mapping controls rank→value assignment.
	Mapping = workload.Mapping
	// StreamSpec describes an insert/delete stream.
	StreamSpec = workload.StreamSpec
	// Op is one stream event.
	Op = workload.Op
)

// Correlations and mappings.
const (
	Positive    = workload.Positive
	Independent = workload.Independent
	Negative    = workload.Negative
	MapRandom   = workload.MapRandom
	MapSmooth   = workload.MapSmooth
)

// ZipfRelation generates a relation whose join attribute follows Zipf(z).
func ZipfRelation(rng *rand.Rand, name string, z float64, domain, n int, m Mapping) *Relation {
	return workload.ZipfRelation(rng, name, z, domain, n, m)
}

// JoinPair generates two correlated Zipf relations.
func JoinPair(rng *rand.Rand, spec JoinPairSpec) (*Relation, *Relation) {
	return workload.JoinPair(rng, spec)
}

// ClusteredPair generates two clustered correlated relations.
func ClusteredPair(rng *rand.Rand, spec ClusterSpec) (*Relation, *Relation) {
	return workload.ClusteredPair(rng, spec)
}

// Company generates the employees/departments demo scenario.
func Company(rng *rand.Rand, employees, departments int) (*Relation, *Relation) {
	return workload.Company(rng, employees, departments)
}

// Stream generates a well-formed insert/delete stream.
func Stream(rng *rand.Rand, spec StreamSpec) []Op { return workload.Stream(rng, spec) }

// JoinSchema returns the (a int, id int) schema the generators use.
func JoinSchema() *Schema { return workload.JoinSchema() }

// Convenience ---------------------------------------------------------------

// Seeded returns a deterministic *rand.Rand. Sampling, estimation options
// and generators all take explicit RNGs so entire runs are reproducible.
func Seeded(seed int64) *rand.Rand { return sampling.Seeded(seed) }

// Deadline is shorthand for a DeadlineOptions with the given budget.
func Deadline(budget time.Duration) DeadlineOptions { return DeadlineOptions{Budget: budget} }
