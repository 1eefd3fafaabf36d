// Package parallel provides the worker-pool primitives behind the
// estimation engine: bounded fan-out over an index space with deterministic
// error selection.
//
// Determinism contract: these primitives schedule tasks in an arbitrary
// order, so callers must write each task's result into an index-addressed
// slot and reduce the slots in index order. Reductions structured that way
// produce bit-identical floats for every worker count, which is what lets
// Options.Workers vary without perturbing estimates.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"relest/internal/obs"
)

// defaultWorkers overrides the GOMAXPROCS default when positive.
var defaultWorkers atomic.Int64

// Workers returns the default worker count: the value set by SetWorkers, or
// GOMAXPROCS when none is set.
func Workers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the package default used when a caller requests 0
// workers (the -workers CLI flag). Passing n <= 0 restores the GOMAXPROCS
// default.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Resolve maps a requested worker count to an effective one: positive
// requests are honored as-is, zero (and negative) requests resolve to the
// package default.
func Resolve(requested int) int {
	if requested > 0 {
		return requested
	}
	return Workers()
}

// For runs fn(i) for every i in [0, n), using at most `workers` goroutines
// (0 resolves to the package default). Tasks are claimed from a shared
// counter, so completion order is arbitrary; see the package determinism
// contract.
func For(n, workers int, fn func(i int)) {
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Pool metric names. Queue depth is the number of unclaimed tasks of the
// most recent fan-out; utilization is busy_seconds / (elapsed_seconds ×
// workers) aggregated over fan-outs.
const (
	mQueueDepth   = "relest_pool_queue_depth"
	mPoolWorkers  = "relest_pool_workers"
	mTasksTotal   = "relest_pool_tasks_total"
	mTaskSeconds  = "relest_pool_task_seconds"
	mBusySeconds  = "relest_pool_busy_seconds_total"
	mElapsedTotal = "relest_pool_elapsed_seconds_total"
)

// ForRec is For with instrumentation: when rec is live, the fan-out
// reports queue depth, per-task latency, and per-worker busy time.
// Recording never alters scheduling or results — the task order and
// reduction contract are identical to For — and with rec nil or Nop this
// is exactly For (no clock reads).
func ForRec(n, workers int, rec obs.Recorder, fn func(i int)) {
	if !obs.Live(rec) {
		For(n, workers, fn)
		return
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	start := time.Now()
	rec.Set(mPoolWorkers, float64(workers))
	rec.Set(mQueueDepth, float64(n))
	task := func(i int) {
		t0 := time.Now()
		fn(i)
		rec.Observe(mTaskSeconds, time.Since(t0).Seconds())
		rec.Add(mTasksTotal, 1)
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			rec.Set(mQueueDepth, float64(n-i-1))
			task(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				w0 := time.Now()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						break
					}
					rec.Set(mQueueDepth, float64(max(n-i-1, 0)))
					task(i)
				}
				rec.Add(mBusySeconds, time.Since(w0).Seconds())
			}()
		}
		wg.Wait()
	}
	rec.Set(mQueueDepth, 0)
	elapsed := time.Since(start).Seconds()
	rec.Add(mElapsedTotal, elapsed)
	if workers <= 1 {
		rec.Add(mBusySeconds, elapsed)
	}
}

// ForErrRec runs fn(i) for every i in [0, n) like ForRec and returns the
// error of the lowest-indexed failing task, so the reported error does not
// depend on scheduling. All tasks run even when an early one fails (errors
// are the exceptional path; the common case needs every result anyway).
func ForErrRec(n, workers int, rec obs.Recorder, fn func(i int) error) error {
	errs := make([]error, n)
	ForRec(n, workers, rec, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
