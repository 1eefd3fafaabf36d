package sampling

import (
	"fmt"
	"math"
	"math/rand"
)

// PairedReservoir maintains a bounded uniform sample over a stream of
// insertions AND deletions, using the random-pairing scheme
// (Gemulla–Lehner–Haas, VLDB 2006): every deletion is conceptually paired
// with a future insertion that "re-fills" the hole it left, which preserves
// the uniformity of the sample without ever rescanning the base data.
//
// Items are identified for deletion by the key function supplied at
// construction; the population is multiset-semantics (deleting a key
// removes one instance).
type PairedReservoir[T any] struct {
	rng  *rand.Rand
	cap  int
	key  func(T) string
	size int64 // current population size (inserts − deletes)

	items []T
	index map[string][]int // key → slots holding it (for deletion lookup)

	// Uncompensated deletions: c1 counts deletions that removed a sample
	// item, c2 deletions that did not. While c1+c2 > 0, insertions
	// compensate them instead of running the plain reservoir step.
	c1, c2 int64
}

// NewPairedReservoir creates a random-pairing reservoir with the given
// capacity and key function. It panics if capacity < 1 or key is nil.
func NewPairedReservoir[T any](rng *rand.Rand, capacity int, key func(T) string) *PairedReservoir[T] {
	if capacity < 1 {
		panic(fmt.Sprintf("sampling: paired reservoir capacity %d < 1", capacity))
	}
	if key == nil {
		panic("sampling: paired reservoir requires a key function")
	}
	return &PairedReservoir[T]{
		rng:   rng,
		cap:   capacity,
		key:   key,
		index: make(map[string][]int),
	}
}

// Insert offers an insertion to the reservoir.
func (p *PairedReservoir[T]) Insert(item T) {
	p.size++
	if p.c1+p.c2 > 0 {
		// Compensation step: this insertion is paired with one of the
		// uncompensated deletions. With probability c1/(c1+c2) it refills
		// a hole the sample itself suffered.
		if float64(p.c1) > p.rng.Float64()*float64(p.c1+p.c2) {
			p.place(item)
			p.c1--
		} else {
			p.c2--
		}
		return
	}
	// Plain reservoir step over the current population size.
	if len(p.items) < p.cap {
		p.place(item)
		return
	}
	if int64(p.rng.Intn(int(p.size))) < int64(p.cap) {
		p.replace(p.rng.Intn(p.cap), item)
	}
}

// Delete processes a deletion of one instance of the given item. It returns
// false if the population does not contain the item according to the
// maintained size counter being zero; callers streaming well-formed
// insert/delete sequences can ignore the return value.
func (p *PairedReservoir[T]) Delete(item T) bool {
	if p.size == 0 {
		return false
	}
	p.size--
	k := p.key(item)
	if slots := p.index[k]; len(slots) > 0 {
		p.removeSlot(slots[len(slots)-1])
		p.c1++
	} else {
		p.c2++
	}
	return true
}

// place appends an item into a free slot.
func (p *PairedReservoir[T]) place(item T) {
	p.items = append(p.items, item)
	slot := len(p.items) - 1
	k := p.key(item)
	p.index[k] = append(p.index[k], slot)
}

// replace overwrites the item at slot with a new item.
func (p *PairedReservoir[T]) replace(slot int, item T) {
	recorder().Add(mReservoirDisplaced, 1)
	p.unindex(slot)
	p.items[slot] = item
	k := p.key(item)
	p.index[k] = append(p.index[k], slot)
}

// removeSlot deletes the item at slot, moving the last item into its place.
func (p *PairedReservoir[T]) removeSlot(slot int) {
	last := len(p.items) - 1
	p.unindex(slot)
	if slot != last {
		p.unindex(last)
		p.items[slot] = p.items[last]
		k := p.key(p.items[slot])
		p.index[k] = append(p.index[k], slot)
	}
	p.items = p.items[:last]
}

// unindex removes slot from the index entry of the item it holds.
func (p *PairedReservoir[T]) unindex(slot int) {
	k := p.key(p.items[slot])
	slots := p.index[k]
	for i, s := range slots {
		if s == slot {
			slots[i] = slots[len(slots)-1]
			slots = slots[:len(slots)-1]
			break
		}
	}
	if len(slots) == 0 {
		delete(p.index, k)
	} else {
		p.index[k] = slots
	}
}

// Items returns the current sample; the slice must not be modified.
func (p *PairedReservoir[T]) Items() []T { return p.items }

// PopulationSize returns the maintained population size
// (insertions − deletions).
func (p *PairedReservoir[T]) PopulationSize() int64 { return p.size }

// SampleSize returns the current number of sampled items. It can be below
// capacity after bursts of deletions; random pairing refills it as
// insertions arrive.
func (p *PairedReservoir[T]) SampleSize() int { return len(p.items) }

// Allocation strategies for stratified sampling.

// Proportional allocates a total sample size n across strata proportionally
// to stratum sizes, largest-remainder rounding, never exceeding a stratum's
// size. Returns per-stratum sample sizes.
func Proportional(strataSizes []int, n int) []int {
	total := 0
	for _, s := range strataSizes {
		total += s
	}
	out := make([]int, len(strataSizes))
	if total == 0 || n <= 0 {
		return out
	}
	if n > total {
		n = total
	}
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, len(strataSizes))
	assigned := 0
	for i, s := range strataSizes {
		exact := float64(n) * float64(s) / float64(total)
		out[i] = int(math.Floor(exact))
		if out[i] > s {
			out[i] = s
		}
		assigned += out[i]
		rems[i] = rem{i: i, frac: exact - math.Floor(exact)}
	}
	// Distribute the remainder by largest fractional part, respecting caps.
	for assigned < n {
		best := -1
		for j := range rems {
			i := rems[j].i
			if out[i] >= strataSizes[i] {
				continue
			}
			if best < 0 || rems[j].frac > rems[best].frac {
				best = j
			}
		}
		if best < 0 {
			break
		}
		out[rems[best].i]++
		rems[best].frac = -1
		assigned++
	}
	return out
}
