package estimator

import (
	"fmt"
	"math/rand"
	"sort"

	"relest/internal/relation"
	"relest/internal/sampling"
)

// Incremental synopsis maintenance: the calibration hint for this paper is
// its role as an *incremental synopsis technique* — the per-relation
// uniform samples are maintained continuously under a stream of insertions
// and deletions, so a COUNT estimate of any registered expression is
// available at any moment without touching the base data.
//
// Insertions run Vitter's reservoir sampling; deletions use random-pairing
// compensation (package sampling), which preserves the uniformity of each
// bounded sample without rescanning. A Snapshot materializes the current
// samples plus exact cardinality counters into a Synopsis for estimation.
//
// Contract: tuples of a tracked relation are identified by value, so each
// relation must be duplicate-free (proper set semantics — the same
// requirement the algebra's set operations already impose). Streams whose
// natural payload repeats must carry a unique identifier column, which is
// how deletion events reference rows in change-data-capture feeds anyway.
// With duplicate tuples present, Delete cannot tell which physical instance
// died and the sample's uniformity degrades.

// Incremental maintains bounded uniform samples over insert/delete streams
// for a set of base relations.
type Incremental struct {
	capacity int
	rng      *rand.Rand
	rels     map[string]*incRel
}

type incRel struct {
	schema    *relation.Schema
	reservoir *sampling.PairedReservoir[relation.Tuple]
	// sketches is the always-on sketch tier over the full stream (not the
	// reservoir): AGMS column sketches are exactly linear, so maintaining
	// them per event equals a rebuild atom for atom. The updates consume
	// no randomness, leaving the reservoir's sampling decisions — and
	// therefore every sample-tier estimate — bit-identical.
	sketches *relSketches
}

// IncrementalOptions configures an incremental synopsis.
type IncrementalOptions struct {
	// Capacity is the maximum number of sampled tuples per relation
	// (required, ≥ 1).
	Capacity int
	// RNG drives all sampling decisions. When nil, a deterministic
	// generator seeded with Seed is used.
	RNG *rand.Rand
	// Seed seeds the sampling RNG when RNG is nil.
	Seed int64
}

// NewIncrementalWithOptions creates an incremental synopsis from options.
// It panics when Capacity < 1 (a programming error, like a negative slice
// capacity).
func NewIncrementalWithOptions(opts IncrementalOptions) *Incremental {
	if opts.Capacity < 1 {
		panic(fmt.Sprintf("estimator: incremental synopsis capacity %d < 1", opts.Capacity))
	}
	return &Incremental{capacity: opts.Capacity, rng: rngOrSeeded(opts.RNG, opts.Seed), rels: map[string]*incRel{}}
}

// Track registers a relation (by name and schema) for maintenance.
func (inc *Incremental) Track(name string, schema *relation.Schema) error {
	if _, dup := inc.rels[name]; dup {
		return fmt.Errorf("estimator: relation %q already tracked", name)
	}
	inc.rels[name] = &incRel{
		schema: schema,
		reservoir: sampling.NewPairedReservoir[relation.Tuple](inc.rng, inc.capacity,
			func(t relation.Tuple) string { return t.Key(nil) }),
		sketches: newRelSketches(schema.Len()),
	}
	return nil
}

// Insert processes the arrival of a tuple for the named relation.
func (inc *Incremental) Insert(name string, t relation.Tuple) error {
	ir, ok := inc.rels[name]
	if !ok {
		return fmt.Errorf("estimator: relation %q not tracked", name)
	}
	if len(t) != ir.schema.Len() {
		return fmt.Errorf("estimator: tuple arity %d != schema arity %d for %q", len(t), ir.schema.Len(), name)
	}
	ir.reservoir.Insert(t)
	ir.sketches.insert(t)
	return nil
}

// Delete processes the deletion of one instance of a tuple from the named
// relation. Deleting a tuple that was never inserted leaves the maintained
// cardinality wrong; the caller owns stream well-formedness.
func (inc *Incremental) Delete(name string, t relation.Tuple) error {
	ir, ok := inc.rels[name]
	if !ok {
		return fmt.Errorf("estimator: relation %q not tracked", name)
	}
	if !ir.reservoir.Delete(t) {
		return fmt.Errorf("estimator: delete from empty relation %q", name)
	}
	ir.sketches.remove(t)
	return nil
}

// Names returns the tracked relation names, sorted.
func (inc *Incremental) Names() []string {
	out := make([]string, 0, len(inc.rels))
	for n := range inc.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PopulationSize returns the maintained exact cardinality of the relation.
func (inc *Incremental) PopulationSize(name string) (int64, bool) {
	ir, ok := inc.rels[name]
	if !ok {
		return 0, false
	}
	return ir.reservoir.PopulationSize(), true
}

// SampleSize returns the current number of sampled tuples for the relation.
func (inc *Incremental) SampleSize(name string) (int, bool) {
	ir, ok := inc.rels[name]
	if !ok {
		return 0, false
	}
	return ir.reservoir.SampleSize(), true
}

// Snapshot materializes the current samples into a Synopsis usable with
// every estimator in this package. The snapshot is independent of later
// stream updates.
func (inc *Incremental) Snapshot() (*Synopsis, error) {
	syn := NewSynopsis()
	for name, ir := range inc.rels {
		sample := relation.New(name, ir.schema)
		for _, t := range ir.reservoir.Items() {
			if err := sample.Append(t); err != nil {
				return nil, err
			}
		}
		if err := syn.AddSample(sample, int(ir.reservoir.PopulationSize())); err != nil {
			return nil, err
		}
		// Transplant a deep copy of the stream's sketch tier so the
		// snapshot stays independent of later updates; the tier planner
		// can then answer sketch-shaped terms from this snapshot even
		// though its relations carry no base (AddSample).
		syn.attachSketches(name, ir.sketches.clone())
	}
	return syn, nil
}
