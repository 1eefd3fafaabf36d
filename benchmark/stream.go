package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"

	"relest/internal/estimator"
	"relest/internal/relation"
	"relest/internal/server"
	"relest/internal/workload"
)

const streamPath = "/v1/synopses/" + synopsisName + "/stream"

var streamRels = []string{"R1", "R2"}

// streamRequest is the wire form of one stream event.
func streamRequest(op workload.Op) server.StreamRequest {
	req := server.StreamRequest{Op: "insert", Relation: op.Rel, Tuple: make([]string, len(op.Tuple))}
	if op.Delete {
		req.Op = "delete"
	}
	for i, v := range op.Tuple {
		req.Tuple[i] = v.String()
	}
	return req
}

// streamOps draws n events per tracked relation with the given delete
// share and interleaves the relations' streams event by event.
// workload.Stream numbers tuple ids from 0 on every call, so idBase shifts
// them clear of the ids an earlier stream already used.
func streamOps(w *spec, s seeds, stream, n int, deleteFrac float64, idBase int64) []workload.Op {
	rng := s.rand(stream)
	per := make([][]workload.Op, len(streamRels))
	for r, rel := range streamRels {
		per[r] = workload.Stream(rng, workload.StreamSpec{Rel: rel, Ops: n, DeleteFrac: deleteFrac, Z: 0.5, Domain: w.domain})
		for i, op := range per[r] {
			// A delete shares its tuple with the insert it undoes; shift
			// into a fresh tuple so no tuple is shifted twice.
			per[r][i].Tuple = relation.Tuple{op.Tuple[0], relation.Int(op.Tuple[1].Int64() + idBase)}
		}
	}
	out := make([]workload.Op, 0, n*len(streamRels))
	for i := 0; i < n; i++ {
		for r := range per {
			out = append(out, per[r][i])
		}
	}
	return out
}

// preloadOps are the insert-only events set-up streams in, so the measured
// window starts from full reservoirs.
func preloadOps(w *spec, s seeds) []workload.Op {
	return streamOps(w, s, streamSynopsis, w.preload, 0, 0)
}

// windowOps is the seeded 70 % insert / 30 % delete sequence the writer
// client applies in order during warm-up and the window. n events per
// relation must outlast the window: the writer never wraps, because a
// repeated insert would break the stream's set semantics.
func windowOps(w *spec, s seeds, n int) []workload.Op {
	return streamOps(w, s, streamEvents, n, 0.3, int64(w.preload))
}

// replayIncremental feeds acknowledged events, in order, to an in-process
// incremental synopsis configured like the server's.
func replayIncremental(w *spec, s seeds, acked []workload.Op) (*estimator.Incremental, error) {
	spec := synopsisRequest(w, s)
	inc := estimator.NewIncrementalWithOptions(estimator.IncrementalOptions{Capacity: spec.Capacity, Seed: spec.Seed})
	for _, rel := range streamRels { // sorted, the registry's tracking order
		if err := inc.Track(rel, workload.JoinSchema()); err != nil {
			return nil, err
		}
	}
	for i, op := range acked {
		var err error
		if op.Delete {
			err = inc.Delete(op.Rel, op.Tuple)
		} else {
			err = inc.Insert(op.Rel, op.Tuple)
		}
		if err != nil {
			return nil, fmt.Errorf("replaying event %d: %w", i, err)
		}
	}
	return inc, nil
}

// streamChecks is the number of post-window checks verifyStream makes.
const streamChecks = 4

// verifyStream checks the stream workload's end state against the events
// the server acknowledged: every tracked population equals inserts minus
// deletes, a seed-pinned estimate equals the one an in-process incremental
// synopsis gives after the same events, and — after a drain and a restart
// from the snapshot directory — the restored server still returns that
// body byte for byte. It takes the stack over: both the stack it is given
// and the restarted one are closed, and the snapshot directory removed, by
// the time it returns. Each returned problem is one failed check.
func verifyStream(ctx context.Context, w *spec, s seeds, st *stack, acked []workload.Op) (problems []string) {
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	defer func() {
		if st != nil {
			if err := st.discard(); err != nil {
				fail("closing the stream stack: %v", err)
			}
		}
	}()
	inc, err := replayIncremental(w, s, acked)
	if err != nil {
		fail("replay: %v", err)
		return problems
	}
	for _, rel := range streamRels {
		want, _ := inc.PopulationSize(rel)
		// COUNT of a bare relation is its maintained population (scaled up
		// from the sample in floating point, hence the rounding).
		req := server.EstimateRequest{Query: "count(" + rel + ")", Synopsis: synopsisName, Seed: 1}
		raw, err := st.post(ctx, "/v1/estimate", req, http.StatusOK)
		if err != nil {
			fail("population of %s: %v", rel, err)
			continue
		}
		got, err := decodeEstimate(raw)
		if err != nil || int64(math.Round(got.Estimate.Value)) != want {
			fail("population of %s: server reports %v, acknowledged events leave %d (%v)", rel, got.Estimate.Value, want, err)
		}
	}
	pinned := server.EstimateRequest{Query: joinAll, Synopsis: synopsisName, Seed: s.seed(streamEvents)}
	snap, err := inc.Snapshot()
	if err != nil {
		fail("snapshot of the replayed synopsis: %v", err)
		return problems
	}
	want, err := libraryBody(ctx, snap, pinned)
	if err != nil {
		fail("%v", err)
		return problems
	}
	if raw, err := st.post(ctx, "/v1/estimate", pinned, http.StatusOK); err != nil || !bytes.Equal(raw, want) {
		fail("pinned estimate differs from the replayed synopsis (%v):\n  server:  %s  library: %s", err, raw, want)
	}
	// Drain (which saves the snapshot) and restart from the directory.
	snapDir := st.snapDir
	err = st.close()
	st = nil
	if err != nil {
		fail("drain before restart: %v", err)
		return problems
	}
	if st, err = bootStack(0, server.Config{SnapshotDir: snapDir}); err != nil {
		st = nil
		fail("restart from %s: %v", snapDir, err)
		return problems
	}
	if raw, err := st.post(ctx, "/v1/estimate", pinned, http.StatusOK); err != nil || !bytes.Equal(raw, want) {
		fail("pinned estimate differs after restart (%v):\n  restored: %s  library:  %s", err, raw, want)
	}
	return problems
}
