// Package sampling implements the random-sampling substrate of the library:
// simple random sampling without replacement over index spaces (drawn fresh
// or extended), split-sample grouping, a bounded reservoir maintained under
// insertions and deletions (random pairing), and stratified sample
// allocation.
//
// All randomness flows from explicitly seeded generators so that every
// experiment in this repository is reproducible; Source derives independent
// substreams from a root seed with SplitMix64.
package sampling

import "math/rand"

// splitmix64 advances a SplitMix64 state and returns the next output. It is
// the standard seed-expansion function: statistically independent outputs
// from consecutive states, used here to derive substream seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source derives independent, reproducible random substreams from one root
// seed. Each call to Stream or Rand with a distinct label index yields a
// generator that is independent of the others for all practical purposes.
type Source struct {
	seed uint64
}

// NewSource creates a Source from a root seed.
func NewSource(seed int64) *Source { return &Source{seed: uint64(seed)} }

// StreamSeed returns the derived seed for substream i.
func (s *Source) StreamSeed(i int) int64 {
	state := s.seed ^ (uint64(i)+1)*0xd1b54a32d192ed03
	return int64(splitmix64(&state))
}

// Rand returns a new *rand.Rand for substream i.
func (s *Source) Rand(i int) *rand.Rand {
	return rand.New(rand.NewSource(s.StreamSeed(i)))
}

// Seeded returns a deterministic *rand.Rand for an explicit seed. It is
// the one blessed constructor for callers that carry a seed directly
// (CLI flags, option structs) rather than deriving substreams from a
// Source; relestlint's rawrand rule forbids raw rand.New/rand.NewSource
// calls everywhere outside this file.
func Seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
