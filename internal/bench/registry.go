package bench

import (
	"fmt"
	"sort"
)

// Experiment is a runnable experiment from the DESIGN.md index.
type Experiment struct {
	ID    string
	Title string
	Run   func(seed int64, scale Scale) *Table
}

// registry maps experiment ids to their runners.
var registry = map[string]Experiment{
	"T1": {"T1", "Selection estimator: error and CI coverage vs sampling fraction", T1Selection},
	"T2": {"T2", "Join estimator: error vs fraction × skew × correlation", T2Join},
	"T3": {"T3", "Set operations: identity-based vs naive estimators", T3SetOps},
	"T4": {"T4", "Distinct-count (π) estimators", T4Distinct},
	"T5": {"T5", "Variance-estimator quality", T5Variance},
	"T6": {"T6", "Equal-space comparison vs AMS sketches and histograms", T6Baselines},
	"T7": {"T7", "Self-join: pattern weights vs naive scaling", T7SelfJoin},
	"F1": {"F1", "Composite expression: error vs sample size", F1Composite},
	"F2": {"F2", "Confidence-interval coverage and width", F2Coverage},
	"F3": {"F3", "Time-constrained estimation (deadline and double sampling)", F3Deadline},
	"F4": {"F4", "Incremental synopsis over an insert/delete stream", F4Incremental},
	"A1": {"A1", "Ablation: stratified vs plain SRSWOR sampling", A1Stratified},
	"A2": {"A2", "Ablation: page-level vs tuple-level sampling", A2PageSampling},
	"A3": {"A3", "Optimizer plan quality: sampling vs AVI catalog", A3Planner},
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return e, nil
}

// IDs returns all experiment ids: tables first, then figures, then the
// ablations, each in numeric order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	var ts, fs, as []string
	for _, id := range out {
		switch id[0] {
		case 'T':
			ts = append(ts, id)
		case 'F':
			fs = append(fs, id)
		default:
			as = append(as, id)
		}
	}
	return append(append(ts, fs...), as...)
}
