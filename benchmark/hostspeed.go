package main

import (
	"os"
	"time"
)

// Host-speed normalization.
//
// The benchmark runs on small shared hosts whose speed drifts by tens of
// percent for a minute at a time (a neighbour contending for cores, cache
// and memory bandwidth): ten runs of unchanged code then spread wider than
// any bound worth gating on, and since a run is shorter than a slow phase,
// no statistic inside a run can see it. So each closed-loop client also
// runs a fixed reference kernel — nothing of the program under test — every
// refEvery between two requests, and the window's time-valued end-to-end
// metrics are reported at reference speed: the time a request spent
// computing is divided by hostSlowdown, the ratio of the kernel's median
// time in this window to refNominal. A slow phase of the host stretches the
// kernel and the program alike and cancels; a slower program does not
// stretch the kernel and shows in full. The raw readings are printed beside
// the normalized ones.
//
// The kernel has two phases of about equal length timed as one — register
// arithmetic, and scattered updates of a cache-resident table — because the
// program is some of each and the host's slow phases hit them differently:
// a table-only kernel slows more than the program does, an arithmetic-only
// one less. Over 14 runs per workload of one seed, spread over the host's
// phases, dividing by this mix cut the standard deviation of the raw figures
// from 6–15 % to 2–9 % on the four compute-bound workloads (root mean square
// 9.4 % → 4.9 %); adding a phase of dependent loads from a table larger than
// the caches bought nothing more.
//
// On a workload whose node logs to disk (stream_rw) the kernel ends with a
// third phase: two small appends to a scratch file beside the WAL, each
// fsynced. There every write is half computing, half waiting for the WAL's
// fsync, and every read waits for the write in flight, so the host's disk
// slows the program as its processor does — and drifts on its own: over five
// consecutive runs the median write went from 0.9 to 1.55 ms while the
// arithmetic-and-table kernel slowed by 29 %. Two appends, because one
// moved less than the program did when the disk slowed (an fsync of the
// kernel's quiet file costs less than one of the busy WAL).
//
// Deadline-mode requests are left as measured and kept out of the latency
// percentiles: their latency is set by the budget they ask for, and over the
// same runs it did not move with the host's speed (standard deviation 1.5 %).

const (
	// refNominal is the kernel's median time on the host the first
	// baseline was taken on, in a quiet phase, so that normalized and raw
	// figures agree there.
	refNominal = 450 * time.Microsecond
	// refNominalSynced is the same for the kernel with its fsynced phase,
	// between the requests of stream_rw.
	refNominalSynced = 1050 * time.Microsecond
	refEvery         = 20 * time.Millisecond
	refSyncs         = 2

	refArithSteps = 110_000 // register arithmetic only
	refCacheSteps = 90_000  // + scattered updates of the table
	refTable      = 1 << 16 // uint64 entries: 512 KiB, cache-resident like a sample
)

// refKernel is one client's reference kernel state.
type refKernel struct {
	table []uint64
	next  time.Time
	x     uint64
	// scratch, when set, receives the fsynced appends.
	scratch *os.File
}

// newRefKernel creates a client's kernel. A non-empty dir is the stack's
// snapshot directory: the kernel then appends to a scratch file in it.
func newRefKernel(dir string) (*refKernel, error) {
	k := &refKernel{table: make([]uint64, refTable), next: time.Now(), x: 88172645463325252}
	if dir != "" {
		var err error
		if k.scratch, err = os.CreateTemp(dir, "refkernel-"); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// close removes the scratch file.
func (k *refKernel) close() error {
	if k.scratch == nil {
		return nil
	}
	err := k.scratch.Close()
	if rerr := os.Remove(k.scratch.Name()); err == nil {
		err = rerr
	}
	return err
}

// refRecord is what the kernel appends: about the size of a WAL event.
var refRecord = []byte(`{"synopsis":"main","op":"insert","relation":"R1","tuple":["1017","20431"]}` + "\n")

// xorshift is one step of Marsaglia's xorshift64.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// run executes the kernel once and returns how long it took.
func (k *refKernel) run() time.Duration {
	start := time.Now()
	x := k.x
	for i := 0; i < refArithSteps; i++ {
		x = xorshift(x)
	}
	for i := 0; i < refCacheSteps; i++ {
		x = xorshift(x)
		k.table[x&(refTable-1)] += x
	}
	k.x = x
	if k.scratch != nil {
		// A failed write or sync would show as a wildly short or long
		// sample, not as a wrong metric; the median shrugs it off.
		for i := 0; i < refSyncs; i++ {
			_, _ = k.scratch.Write(refRecord)
			_ = k.scratch.Sync()
		}
	}
	return time.Since(start)
}

// sample runs the kernel if refEvery has passed since its last run and logs
// how long it took.
func (k *refKernel) sample(log *clientLog) {
	if now := time.Now(); !now.Before(k.next) {
		log.refLat = append(log.refLat, k.run())
		k.next = now.Add(refEvery)
	}
}

// hostSlowdown is how much slower than nominal the host ran during a
// window, judged by the reference kernel's median time (1 when the kernel
// never ran, as in windows shorter than refEvery). synced says the kernel
// included the fsynced phase.
func hostSlowdown(refLat []time.Duration, synced bool) float64 {
	if len(refLat) == 0 {
		return 1
	}
	nominal := refNominal
	if synced {
		nominal = refNominalSynced
	}
	return median(durationsTo(refLat, micros)) / micros(nominal)
}
