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
// Items are identified for deletion by their key: the key function
// supplied at construction, or the key InsertFunc's build returns. The
// population is multiset-semantics (deleting a key removes one instance).
type PairedReservoir[T any] struct {
	rng  *rand.Rand
	cap  int
	key  func(T) string
	size int64 // current population size (inserts − deletes)

	items []T
	keys  []string         // keys[slot] is the key of items[slot]
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
	p.InsertFunc(func() (T, string) { return item, p.key(item) })
}

// InsertFunc offers an insertion whose item is built only if the
// reservoir takes it: build runs at most once, after every random draw of
// the step, and returns the item and its key. The draws are Insert's, in
// Insert's order, so a stream fed through either gives the same sample.
// It reports whether the item was taken.
func (p *PairedReservoir[T]) InsertFunc(build func() (T, string)) bool {
	p.size++
	if p.c1+p.c2 > 0 {
		// Compensation step: this insertion is paired with one of the
		// uncompensated deletions. With probability c1/(c1+c2) it refills
		// a hole the sample itself suffered.
		if float64(p.c1) > p.rng.Float64()*float64(p.c1+p.c2) {
			p.c1--
			p.place(build())
			return true
		}
		p.c2--
		return false
	}
	// Plain reservoir step over the current population size.
	if len(p.items) < p.cap {
		p.place(build())
		return true
	}
	if int64(p.rng.Intn(int(p.size))) < int64(p.cap) {
		slot := p.rng.Intn(p.cap)
		item, k := build()
		p.replace(slot, item, k)
		return true
	}
	return false
}

// Delete processes a deletion of one instance of the given item. It returns
// false if the population does not contain the item according to the
// maintained size counter being zero; callers streaming well-formed
// insert/delete sequences can ignore the return value.
func (p *PairedReservoir[T]) Delete(item T) bool { return p.DeleteKey(p.key(item)) }

// DeleteKey is Delete for the item with key k.
func (p *PairedReservoir[T]) DeleteKey(k string) bool {
	if p.size == 0 {
		return false
	}
	p.size--
	if slots := p.index[k]; len(slots) > 0 {
		p.removeSlot(slots[len(slots)-1])
		p.c1++
	} else {
		p.c2++
	}
	return true
}

// place appends an item into a free slot.
func (p *PairedReservoir[T]) place(item T, k string) {
	p.items = append(p.items, item)
	p.keys = append(p.keys, k)
	slot := len(p.items) - 1
	p.index[k] = append(p.index[k], slot)
}

// replace overwrites the item at slot with a new item.
func (p *PairedReservoir[T]) replace(slot int, item T, k string) {
	recorder().Add(mReservoirDisplaced, 1)
	p.unindex(slot)
	p.items[slot], p.keys[slot] = item, k
	p.index[k] = append(p.index[k], slot)
}

// removeSlot deletes the item at slot, moving the last item into its place.
func (p *PairedReservoir[T]) removeSlot(slot int) {
	last := len(p.items) - 1
	p.unindex(slot)
	if slot != last {
		p.unindex(last)
		p.items[slot], p.keys[slot] = p.items[last], p.keys[last]
		k := p.keys[slot]
		p.index[k] = append(p.index[k], slot)
	}
	var zero T
	p.items[last], p.keys[last] = zero, ""
	p.items, p.keys = p.items[:last], p.keys[:last]
}

// unindex removes slot from the index entry of the item it holds.
func (p *PairedReservoir[T]) unindex(slot int) {
	k := p.keys[slot]
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

// Holds reports whether the sample holds an item with key k.
func (p *PairedReservoir[T]) Holds(k string) bool { return len(p.index[k]) > 0 }

// Items returns the current sample in slot order; the slice must not be
// modified.
func (p *PairedReservoir[T]) Items() []T { return p.items }

// Renumber replaces every sampled item by fn(slot, item), keeping its slot
// and key: the owner of items that refer into other storage calls it when
// it moves that storage.
func (p *PairedReservoir[T]) Renumber(fn func(slot int, item T) T) {
	for slot, item := range p.items {
		p.items[slot] = fn(slot, item)
	}
}

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
