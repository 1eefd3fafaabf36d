package estimator

import (
	"errors"
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
// bounded sample without rescanning. A Snapshot is a view of the current
// samples plus the exact cardinality counters, as a Synopsis for
// estimation.
//
// Contract: tuples of a tracked relation are identified by value, so each
// relation must be duplicate-free (proper set semantics — the same
// requirement the algebra's set operations already impose). Streams whose
// natural payload repeats must carry a unique identifier column, which is
// how deletion events reference rows in change-data-capture feeds anyway.
// With duplicate tuples present, Delete cannot tell which physical instance
// died and the sample's uniformity degrades.
//
// Two events prove a stream breaks the contract, and are refused with
// ErrRefusedEvent before they touch the reservoir, the sketches or the
// generator, so the synopsis stays as if they never arrived: an insert of
// a tuple the sample already holds (a live duplicate), and a delete of a
// tuple the sample does not hold when the population, less that tuple,
// would be smaller than the sample (no live row outside the sample is
// left to delete). Accepting either would leave the sample larger than
// the population it claims to sample, which no snapshot can estimate
// from. ReplayInsert and ReplayDelete apply an event without these
// checks, for a log of events acknowledged before they existed.

// ErrRefusedEvent reports a stream event an incremental synopsis refused
// because it contradicts the duplicate-free stream contract. The synopsis
// is unchanged.
var ErrRefusedEvent = errors.New("estimator: stream event refused")

// Incremental maintains bounded uniform samples over insert/delete streams
// for a set of base relations.
type Incremental struct {
	capacity int
	rng      *rand.Rand
	rels     map[string]*incRel
}

// incRel is one tracked relation. Its sample lives in store, an
// append-only columnar relation, and the reservoir's items are row ids
// into it: an arriving tuple is appended only when the reservoir takes
// it, so no tuple stays boxed, and a snapshot is one row-id vector over
// the store (Subset). A displaced or deleted item leaves a dead row
// behind; once the store holds more than twice the capacity, compact
// rebuilds it from the live rows. Columns are never rewritten, so a
// snapshot taken before a compaction keeps reading the store it pinned.
type incRel struct {
	schema    *relation.Schema
	store     *relation.Relation
	reservoir *sampling.PairedReservoir[int]
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
	ir := &incRel{
		schema:   schema,
		store:    relation.New(name, schema),
		sketches: newRelSketches(schema.Len()),
	}
	ir.reservoir = sampling.NewPairedReservoir[int](inc.rng, inc.capacity,
		func(id int) string { return ir.store.Row(id).Key(nil) })
	inc.rels[name] = ir
	return nil
}

// tracked returns the named relation after checking t against its
// schema: the arity, and the kind of every non-null value. A tuple the
// store would refuse must be refused before the reservoir draws for it.
func (inc *Incremental) tracked(name string, t relation.Tuple) (*incRel, error) {
	ir, ok := inc.rels[name]
	if !ok {
		return nil, fmt.Errorf("estimator: relation %q not tracked", name)
	}
	if len(t) != ir.schema.Len() {
		return nil, fmt.Errorf("estimator: tuple arity %d != schema arity %d for %q", len(t), ir.schema.Len(), name)
	}
	for c, v := range t {
		if col := ir.schema.Column(c); !v.IsNull() && v.Kind() != col.Kind {
			return nil, fmt.Errorf("estimator: column %s of %q expects %s, got %s", col.Name, name, col.Kind, v.Kind())
		}
	}
	return ir, nil
}

// Insert processes the arrival of a tuple for the named relation. It
// refuses a tuple the sample already holds (ErrRefusedEvent).
func (inc *Incremental) Insert(name string, t relation.Tuple) error { return inc.insert(name, t, true) }

// ReplayInsert is Insert without the refusal: it applies a logged insert
// the way it was applied when it was acknowledged, a duplicate included,
// so a replay reproduces the reservoir and its generator draws.
func (inc *Incremental) ReplayInsert(name string, t relation.Tuple) error {
	return inc.insert(name, t, false)
}

// CheckInsert returns the error Insert would return for t, without
// applying it or drawing from the generator: a caller that logs an event
// before applying it checks it first.
func (inc *Incremental) CheckInsert(name string, t relation.Tuple) error {
	return inc.check(name, t, true)
}

// CheckDelete is CheckInsert for Delete.
func (inc *Incremental) CheckDelete(name string, t relation.Tuple) error {
	return inc.check(name, t, false)
}

func (inc *Incremental) check(name string, t relation.Tuple, insert bool) error {
	ir, err := inc.tracked(name, t)
	if err != nil {
		return err
	}
	return ir.refuse(name, t.Key(nil), insert)
}

// refuse returns ErrRefusedEvent for an insert (insert true) or a delete
// of the tuple whose key is key that proves the stream breaks its
// contract: an insert of a tuple the sample holds, or a delete of one it
// does not hold when no live row outside the sample is left. An empty
// relation is such a case, so a delete that passes removes a row.
func (ir *incRel) refuse(name, key string, insert bool) error {
	held := ir.reservoir.Holds(key)
	switch {
	case insert && held:
		return fmt.Errorf("%w: insert on %q: the sample already holds the tuple, so it would be a live duplicate", ErrRefusedEvent, name)
	case !insert && !held && ir.reservoir.PopulationSize()-1 < int64(ir.reservoir.SampleSize()):
		return fmt.Errorf("%w: delete on %q: the sample does not hold the tuple and no live row outside the sample is left", ErrRefusedEvent, name)
	}
	return nil
}

func (inc *Incremental) insert(name string, t relation.Tuple, refuse bool) error {
	ir, err := inc.tracked(name, t)
	if err != nil {
		return err
	}
	key := t.Key(nil)
	if refuse {
		if err := ir.refuse(name, key, true); err != nil {
			return err
		}
	}
	if ir.reservoir.InsertFunc(func() (int, string) {
		ir.store.MustAppend(t)
		return ir.store.Len() - 1, key
	}) && ir.store.Len() > 2*inc.capacity {
		ir.compact()
	}
	ir.sketches.insert(t)
	return nil
}

// compact rebuilds the store from the live rows in slot order and
// renumbers the reservoir's items to match.
func (ir *incRel) compact() {
	old := ir.store
	store := relation.New(old.Name(), ir.schema)
	ir.reservoir.Renumber(func(slot, id int) int {
		store.AppendFrom(old, id)
		return slot
	})
	ir.store = store
}

// Delete processes the deletion of one instance of a tuple from the named
// relation. It refuses the deletion of a tuple the sample does not hold
// when every live row is sampled (ErrRefusedEvent); deleting a tuple
// that was never inserted otherwise goes unseen and leaves the maintained
// cardinality wrong, so the caller owns stream well-formedness.
func (inc *Incremental) Delete(name string, t relation.Tuple) error { return inc.delete(name, t, true) }

// ReplayDelete is Delete without the refusal: it applies a logged delete
// the way it was applied when it was acknowledged. It fails only on an
// empty relation.
func (inc *Incremental) ReplayDelete(name string, t relation.Tuple) error {
	return inc.delete(name, t, false)
}

func (inc *Incremental) delete(name string, t relation.Tuple, refuse bool) error {
	ir, err := inc.tracked(name, t)
	if err != nil {
		return err
	}
	key := t.Key(nil)
	if refuse {
		if err := ir.refuse(name, key, false); err != nil {
			return err
		}
	}
	if !ir.reservoir.DeleteKey(key) {
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

// Schema returns the schema of a tracked relation (a
// query.SchemaProvider). The tracked set is fixed by Track, so queries
// bind against it without a snapshot.
func (inc *Incremental) Schema(name string) (*relation.Schema, bool) {
	ir, ok := inc.rels[name]
	if !ok {
		return nil, false
	}
	return ir.schema, true
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

// Snapshot returns the current samples as a Synopsis usable with every
// estimator in this package, with a copy of the stream's sketch tier. The
// snapshot is independent of later stream updates.
func (inc *Incremental) Snapshot() (*Synopsis, error) { return inc.snapshot(true) }

// SampleSnapshot is Snapshot without the sketch tier: what an estimate
// that reads samples only (TierSampleOnly) needs, for the cost of one
// row-id vector per relation.
func (inc *Incremental) SampleSnapshot() (*Synopsis, error) { return inc.snapshot(false) }

func (inc *Incremental) snapshot(sketches bool) (*Synopsis, error) {
	syn := NewSynopsis()
	for _, name := range inc.Names() { // in name order, so a failure names the same relation every time
		ir := inc.rels[name]
		// A view over the store pins its columns at their current length,
		// and the store only ever appends, so later events never show
		// through the snapshot.
		sample := ir.store.Subset(name, ir.reservoir.Items())
		if err := syn.AddSample(sample, int(ir.reservoir.PopulationSize())); err != nil {
			return nil, err
		}
		if sketches {
			// Transplant a deep copy of the stream's sketch tier so the
			// snapshot stays independent of later updates; the tier
			// planner can then answer sketch-shaped terms from this
			// snapshot even though its relations carry no base
			// (AddSample).
			syn.attachSketches(name, ir.sketches.clone())
		}
	}
	return syn, nil
}
