// Command relestd runs the estimation daemon: an HTTP service that
// registers relations (CSV upload or synthetic generation), maintains
// named synopses — one-shot static draws and incrementally-maintained
// samples fed by an insert/delete stream — and answers estimation
// requests from them.
//
// Usage:
//
//	relestd -addr 127.0.0.1:7878 -concurrency 8 -queue 64 -timeout 30s
//
// The daemon prints "relestd listening on ADDR" once the listener is
// bound, serves until SIGINT/SIGTERM, then drains: new estimates are
// refused while every admitted request still gets its answer.
//
// Endpoints (all request/response bodies are JSON unless noted):
//
//	POST /v1/relations/{name}        register the CSV request body
//	POST /v1/generate                synthesize a dataset (relgen kinds)
//	GET  /v1/relations               list registered relations
//	POST /v1/synopses/{name}         create a static or incremental synopsis
//	POST /v1/synopses/{name}/stream  feed one insert/delete event
//	GET  /v1/synopses                list synopses
//	POST /v1/estimate                estimate count/sum/avg from a synopsis
//	POST /v1/estimate/batch          many estimates in one admitted request
//	POST /v1/snapshot                persist state to -snapshot-dir
//	GET  /metrics                    Prometheus text metrics
//	GET  /healthz                    liveness and drain state
//
// Estimates are deterministic for a pinned seed: the response bytes
// match a direct library call, for every concurrency setting.
//
// Cluster modes:
//
//	relestd -shard-addrs http://h1:7878,http://h2:7878
//	relestd -shards 4
//
// With -shard-addrs the daemon is a coordinator: it fronts stock relestd
// shard nodes, hash- or range-sharding registered relations by -shard-key
// and answering estimates by stratified merge of per-shard partials
// (byte-identical to a single node at one shard). -shards N runs
// coordinator and N shard nodes inside one process. Coordinators add
// POST /v1/cluster/rebalance and GET /v1/cluster, and their /metrics
// merges every shard's families under distinct shard="N" labels.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"relest/internal/cluster"
	"relest/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relestd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("relestd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7878", "listen address (port 0 picks a free port)")
	concurrency := fs.Int("concurrency", 0, "estimation workers (0 = all CPUs)")
	queue := fs.Int("queue", 64, "admission queue depth; excess requests are shed with 429")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request wall-clock cap")
	workers := fs.Int("workers", 0, "per-estimate evaluation parallelism (0 = library default); estimates are identical for every setting")
	maxUpload := fs.Int64("max-upload-bytes", 0, "CSV upload size cap in bytes; imports stream, so this bounds upload memory (0 = 64 MiB default)")
	snapshotDir := fs.String("snapshot-dir", "", "directory for snapshot/restore and the append-only stream log; restored on start, saved on POST /v1/snapshot and on shutdown (empty = persistence off)")
	synBudget := fs.Int64("synopsis-budget-bytes", 0, "total resident static synopsis bytes before LRU eviction; evicted synopses rebuild transparently on next use (0 = unlimited)")
	tenantSlots := fs.Int("tenant-queue-slots", 0, "concurrently admitted estimation requests per tenant before 429 (0 = unlimited)")
	tenantBytes := fs.Int64("tenant-synopsis-bytes", 0, "resident static synopsis bytes per tenant before creations are rejected with 413 (0 = unlimited)")
	shardAddrs := fs.String("shard-addrs", "", "comma-separated shard node base URLs; when set, run as the coordinator fronting them")
	shards := fs.Int("shards", 0, "run an in-process cluster: a coordinator fronting this many shard nodes in one binary (0 = off)")
	shardKey := fs.String("shard-key", "", "default shard-key column for registered relations (empty = first column)")
	shardMode := fs.String("shard-mode", "hash", "shard routing: \"hash\" or \"range\" (range needs -shard-bounds)")
	shardBounds := fs.String("shard-bounds", "", "comma-separated ascending int upper bounds for range mode (one fewer than the shard count)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if narg := fs.NArg(); narg > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *workers < 0 || *concurrency < 0 {
		fs.Usage()
		return fmt.Errorf("-workers and -concurrency must be >= 0, got %d and %d", *workers, *concurrency)
	}

	coordinator := *shardAddrs != ""
	if coordinator && *shards > 0 {
		return fmt.Errorf("-shards runs its own in-process coordinator; it conflicts with -shard-addrs")
	}
	bounds, err := parseBounds(*shardBounds)
	if err != nil {
		return err
	}
	if (coordinator || *shards > 0) && *snapshotDir != "" {
		// A coordinator holds no synopses of its own and in-process shard
		// nodes would collide inside one snapshot directory; refusing beats
		// silently not persisting.
		return fmt.Errorf("-snapshot-dir is a single-node feature")
	}

	shardCfg := server.Config{
		Concurrency:         *concurrency,
		QueueDepth:          *queue,
		RequestTimeout:      *timeout,
		EstimatorWorkers:    *workers,
		MaxUploadBytes:      *maxUpload,
		SynopsisBytesBudget: *synBudget,
		TenantQueueSlots:    *tenantSlots,
		TenantSynopsisBytes: *tenantBytes,
	}
	if coordinator {
		coord, err := cluster.New(cluster.Config{
			Addr:            *addr,
			ShardAddrs:      strings.Split(*shardAddrs, ","),
			Spec:            cluster.ShardSpec{Shards: len(strings.Split(*shardAddrs, ",")), Mode: *shardMode, Bounds: bounds},
			DefaultShardKey: *shardKey,
			RequestTimeout:  *timeout,
		})
		if err != nil {
			return err
		}
		if err := coord.Start(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "relestd listening on %s\n", coord.Addr())
		fmt.Fprintf(stdout, "relestd coordinator over %d shards\n", len(strings.Split(*shardAddrs, ",")))
		return awaitSignals(stdout, 2**timeout, coord.Shutdown)
	}
	if *shards > 0 {
		h, err := cluster.StartHarness(cluster.HarnessConfig{
			Shards:      *shards,
			Mode:        *shardMode,
			Bounds:      bounds,
			ShardKey:    *shardKey,
			Shard:       shardCfg,
			Coordinator: cluster.Config{Addr: *addr, RequestTimeout: *timeout},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "relestd listening on %s\n", h.Addr())
		for i, node := range h.Shards {
			fmt.Fprintf(stdout, "relestd shard %d on %s\n", i, node.Addr())
		}
		return awaitSignals(stdout, 2**timeout, h.Close)
	}

	srv := server.New(server.Config{
		Addr:                *addr,
		Concurrency:         *concurrency,
		QueueDepth:          *queue,
		RequestTimeout:      *timeout,
		EstimatorWorkers:    *workers,
		MaxUploadBytes:      *maxUpload,
		SnapshotDir:         *snapshotDir,
		SynopsisBytesBudget: *synBudget,
		TenantQueueSlots:    *tenantSlots,
		TenantSynopsisBytes: *tenantBytes,
	})
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "relestd listening on %s\n", srv.Addr())

	return awaitSignals(stdout, 2**timeout, srv.Shutdown)
}

// awaitSignals blocks until SIGINT/SIGTERM, then drains through shutdown
// with the given grace period. All daemon roles share this tail so their
// lifecycle lines stay identical.
func awaitSignals(stdout io.Writer, grace time.Duration, shutdown func(context.Context) error) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	fmt.Fprintln(stdout, "relestd draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(stdout, "relestd stopped")
	return nil
}

// parseBounds parses the -shard-bounds list.
func parseBounds(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, f := range strings.Split(s, ",") {
		var v int64
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &v); err != nil {
			return nil, fmt.Errorf("parsing -shard-bounds entry %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}
