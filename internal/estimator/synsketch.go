package estimator

import (
	"sort"

	"relest/internal/relation"
	"relest/internal/sketch"
)

// The sketch tier: per-relation, per-column AGMS sketches plus KMV
// distinct summaries, summarizing the FULL relation (not the sample).
// They are the cheap first tier the planner consults before touching the
// counting-polynomial machinery — a two-relation equi-join or self-join
// term is answered from 2·Groups·GroupSize counters in microseconds,
// escalating to the sample tier only when the sketch CI is too wide or
// the term's shape is out of the sketch's reach (see tier.go).
//
// All sketches share one fixed Config: equal configs mean equal ξ streams,
// which is what makes any column sketch joinable with any other. The
// construction consumes no randomness from the estimation RNGs (the ξ
// streams derive from the fixed Config.Seed), so building or carrying
// sketches never perturbs sample-tier estimates — bit-identity of the
// legacy paths is preserved by construction.

// sketchConfig shapes every column sketch in the tier: hashed ("fast
// AGMS") layout, 9 median groups of 512 buckets each. A stream update
// touches 9 counters regardless of width, while the 512-bucket rows hold
// the relative standard error of mid-size equi-joins to a few percent —
// tight enough that the default 10% precision target is met without
// escalating. The cost is 4608 counters (36 KiB) per column.
var sketchConfig = sketch.Config{Groups: 9, GroupSize: 512, Hashed: true, Seed: 1988}

// sketchDistinctK is the KMV capacity of the per-column distinct
// summaries.
const sketchDistinctK = 256

// relSketches is the sketch tier of one relation: one AGMS sketch and one
// KMV distinct summary per schema column. Attached to a Synopsis they are
// immutable (shared freely across Clone); inside an Incremental they are
// updated in place on every stream event.
type relSketches struct {
	cols     []*sketch.Sketch
	distinct []*sketch.Distinct
}

// newRelSketches creates empty sketches for an nCols-column relation.
func newRelSketches(nCols int) *relSketches {
	rk := &relSketches{
		cols:     make([]*sketch.Sketch, nCols),
		distinct: make([]*sketch.Distinct, nCols),
	}
	for c := range rk.cols {
		rk.cols[c] = sketch.New(sketchConfig)
		rk.distinct[c] = sketch.NewDistinct(sketchDistinctK, sketchConfig.Seed+int64(c))
	}
	return rk
}

// insert folds one tuple into every column sketch.
func (rk *relSketches) insert(t relation.Tuple) {
	for c, v := range t {
		h := v.Hash()
		rk.cols[c].Add(h)
		rk.distinct[c].Add(h)
	}
}

// remove folds one tuple deletion into every column sketch (AGMS sketches
// are exactly linear, so a remove undoes the matching insert atom for
// atom).
func (rk *relSketches) remove(t relation.Tuple) {
	for c, v := range t {
		h := v.Hash()
		rk.cols[c].Remove(h)
		rk.distinct[c].Remove(h)
	}
}

// bytes reports the tier's resident storage for this relation.
func (rk *relSketches) bytes() int {
	total := 0
	for c := range rk.cols {
		total += rk.cols[c].Bytes() + rk.distinct[c].Bytes()
	}
	return total
}

// clone returns a deep copy, decoupling a Snapshot from later stream
// updates.
func (rk *relSketches) clone() *relSketches {
	out := &relSketches{
		cols:     make([]*sketch.Sketch, len(rk.cols)),
		distinct: make([]*sketch.Distinct, len(rk.distinct)),
	}
	for c := range rk.cols {
		out.cols[c] = rk.cols[c].Clone()
		out.distinct[c] = rk.distinct[c].Clone()
	}
	return out
}

// buildRelSketches scans a stored base relation into a fresh sketch set.
func buildRelSketches(base *relation.Relation) *relSketches {
	rk := newRelSketches(base.Schema().Len())
	for c := 0; c < base.Schema().Len(); c++ {
		sk, d := rk.cols[c], rk.distinct[c]
		for i := 0; i < base.Len(); i++ {
			h := base.Value(i, c).Hash()
			sk.Add(h)
			d.Add(h)
		}
	}
	return rk
}

// EnsureSketches builds the sketch tier for every relation of the
// synopsis that retains its base relation (AddDrawn / AddDrawnPages /
// AddDrawnStratified), scanning the full base once per relation. It is
// idempotent and safe under concurrent callers, so servers can share one
// synopsis across tiered requests. Relations registered through AddSample
// carry no base (the population was never seen), get no sketches, and
// have their terms escalate to the sample tier — unless sketches were
// transplanted by Incremental.Snapshot, which maintains them on the
// stream itself.
func (s *Synopsis) EnsureSketches() {
	s.sketchMu.Lock()
	defer s.sketchMu.Unlock()
	if s.sketches == nil {
		s.sketches = make(map[string]*relSketches)
	}
	for name, rs := range s.rels {
		if _, done := s.sketches[name]; done {
			continue
		}
		if rs.base == nil {
			continue
		}
		s.sketches[name] = buildRelSketches(rs.base)
	}
}

// attachSketches transplants a prebuilt sketch set (Incremental.Snapshot).
// The set must not be mutated afterwards.
func (s *Synopsis) attachSketches(name string, rk *relSketches) {
	s.sketchMu.Lock()
	defer s.sketchMu.Unlock()
	if s.sketches == nil {
		s.sketches = make(map[string]*relSketches)
	}
	s.sketches[name] = rk
}

// relSketch returns the named relation's sketch set, or nil.
func (s *Synopsis) relSketch(name string) *relSketches {
	s.sketchMu.Lock()
	defer s.sketchMu.Unlock()
	return s.sketches[name]
}

// cloneSketchRefs shares the (immutable) built sketches with a clone.
func (s *Synopsis) cloneSketchRefs(out *Synopsis) {
	s.sketchMu.Lock()
	defer s.sketchMu.Unlock()
	if s.sketches == nil {
		return
	}
	out.sketches = make(map[string]*relSketches, len(s.sketches))
	for name, rk := range s.sketches {
		out.sketches[name] = rk
	}
}

// SketchBytes reports the resident storage of the synopsis's sketch tier
// (zero before EnsureSketches).
func (s *Synopsis) SketchBytes() int {
	s.sketchMu.Lock()
	defer s.sketchMu.Unlock()
	total := 0
	for _, rk := range s.sketches {
		total += rk.bytes()
	}
	return total
}

// HasSketches reports whether the named relation carries a sketch tier.
func (s *Synopsis) HasSketches(name string) bool { return s.relSketch(name) != nil }

// SketchDistinct returns the KMV distinct-count estimate for one column
// of a sketched relation (false when the relation has no sketch tier or
// the column does not exist). This is the summary the CEG-style planners
// consult for join-key frequency reasoning; the count estimators proper
// keep using the sample-based Goodman family.
func (s *Synopsis) SketchDistinct(rel, col string) (float64, bool) {
	rk := s.relSketch(rel)
	rs, ok := s.rels[rel]
	if rk == nil || !ok {
		return 0, false
	}
	pos := rs.sample.Schema().ColumnIndex(col)
	if pos < 0 || pos >= len(rk.distinct) {
		return 0, false
	}
	return rk.distinct[pos].Estimate(), true
}

// SketchedRelations returns the sorted names of relations carrying a
// sketch tier.
func (s *Synopsis) SketchedRelations() []string {
	s.sketchMu.Lock()
	defer s.sketchMu.Unlock()
	out := make([]string, 0, len(s.sketches))
	for name := range s.sketches {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
