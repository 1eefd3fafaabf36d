package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"relest/internal/cluster"
	"relest/internal/obs"
	"relest/internal/server"
	"relest/internal/workload"
)

// shutdownTimeout bounds every drain; nothing the benchmark leaves in
// flight takes longer than a deadline request.
const shutdownTimeout = 30 * time.Second

// stack is the serving stack a workload runs against: one relestd, or a
// coordinator over shard relestds, booted in this process on loopback TCP
// with the program's own Start — the same code paths cmd/relestd runs.
type stack struct {
	node    *server.Server
	harness *cluster.Harness
	// driver is the one client every request of a run goes through; its
	// transport holds at most clients connections per host, keep-alive on,
	// so connections never outnumber the closed-loop clients.
	driver  *workload.Driver
	snapDir string
}

const clients = 2

func newDriver(base string) *workload.Driver {
	return &workload.Driver{
		BaseURL: base,
		Client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		}},
	}
}

// bootStack starts a coordinator over shards shard nodes, or with shards 0 a
// single node with the given configuration. cfg.SnapshotDir, when set, is an
// existing directory the node restores from and logs to.
func bootStack(shards int, cfg server.Config) (*stack, error) {
	st := &stack{snapDir: cfg.SnapshotDir}
	if shards > 0 {
		h, err := cluster.StartHarness(cluster.HarnessConfig{Shards: shards, ShardKey: "a", Shard: cfg})
		if err != nil {
			return nil, err
		}
		st.harness, st.driver = h, newDriver("http://"+h.Addr())
	} else {
		node := server.New(cfg)
		if err := node.Start(); err != nil {
			return nil, err
		}
		st.node, st.driver = node, newDriver("http://"+node.Addr())
	}
	return st, nil
}

// close drains the stack. With a snapshot directory the node also saves
// its state, which is what the stream workload's restart check restores.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if tr, ok := st.driver.Client.Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	if st.harness != nil {
		return st.harness.Close(ctx)
	}
	return st.node.Shutdown(ctx)
}

// discard closes the stack and removes its snapshot directory.
func (st *stack) discard() error {
	err := st.close()
	if st.snapDir != "" {
		if rerr := os.RemoveAll(st.snapDir); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// collectors lists the stack's metric registries: the node's, or the
// coordinator's followed by each shard's.
func (st *stack) collectors() []*obs.Collector {
	if st.harness == nil {
		return []*obs.Collector{st.node.Collector()}
	}
	cols := []*obs.Collector{st.harness.Coord.Collector()}
	for _, s := range st.harness.Shards {
		cols = append(cols, s.Collector())
	}
	return cols
}

// post sends a JSON request and fails on any status but want.
func (st *stack) post(ctx context.Context, path string, body any, want int) ([]byte, error) {
	status, raw, err := st.driver.Do(ctx, path, body)
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", path, err)
	}
	if status != want {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, status, raw)
	}
	return raw, nil
}

// estimate posts a pre-marshalled estimate request.
func (st *stack) estimate(ctx context.Context, body []byte) (int, []byte, error) {
	return st.driver.DoRaw(ctx, "/v1/estimate", "application/json", body)
}

// setUp boots the workload's stack and brings it to the state the measured
// window starts from: relations generated and registered, the synopsis
// drawn, the sketch tier built where the mix uses it, and the incremental
// synopsis preloaded. Its wall time is the setup_s metric, so it contains
// only work the program under test does — the benchmark's own mirror and
// expected answers are prepared (and timed) apart.
func setUp(ctx context.Context, w *spec, s seeds, snapDir string, pool []combo, preload []workload.Op) (*stack, error) {
	st, err := bootStack(w.shards, server.Config{SnapshotDir: snapDir})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*stack, error) {
		_ = st.close() // the set-up error is the one worth reporting
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if _, err := st.post(ctx, "/v1/generate", generateRequest(w, s), http.StatusCreated); err != nil {
		return fail(err)
	}
	if _, err := st.post(ctx, "/v1/synopses/"+synopsisName, synopsisRequest(w, s), http.StatusCreated); err != nil {
		return fail(err)
	}
	for _, c := range pool {
		if c.req.TierPolicy == "" {
			continue
		}
		// The sketch tier is built on the first tiered request (one scan of
		// every base relation); that is set-up, not a measured operation.
		if status, raw, err := st.estimate(ctx, c.body); err != nil || status != http.StatusOK {
			return fail(fmt.Errorf("priming the sketch tier: status %d: %s (%v)", status, raw, err))
		}
		break
	}
	for _, op := range preload {
		if _, err := st.post(ctx, streamPath, streamRequest(op), http.StatusOK); err != nil {
			return fail(err)
		}
	}
	return st, nil
}

// makeSnapDir creates a fresh snapshot directory under the benchmark's
// output directory (the checkout's own filesystem: the WAL's fsync cost is
// part of what stream_rw measures).
func makeSnapDir() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "snap-")
}
