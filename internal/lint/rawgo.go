package lint

import (
	"go/ast"
	"strings"
)

// RawGo flags `go` statements everywhere except an explicit allowlist of
// packages. The estimation engine's determinism contract (bit-identical
// estimates for every -workers setting) holds because all estimation
// fan-out runs through parallel.For/ForErrRec, whose callers write results
// into index-addressed slots and reduce them in index order. Ad-hoc
// goroutines bypass that contract.
var RawGo = &Analyzer{
	Name: "rawgo",
	Doc:  "concurrency must flow through the internal/parallel worker pool",
	Run:  runRawGo,
}

// goAllowedPkgs are the package suffixes allowed to spawn goroutines.
//
//   - internal/parallel: the deterministic worker pool every estimate
//     reduction runs through.
//   - internal/server: request-level concurrency (accept loop, bounded
//     worker pool, per-request timeouts). Each request still computes its
//     estimate through the parallel pool, so serving concurrency never
//     touches the reduction order; keeping all goroutine spawning inside
//     this package is what lets cmd/relestd and the examples stay free of
//     raw `go` statements.
//   - internal/workload: the load-harness driver's client goroutines
//     (Fanout), which only issue HTTP requests against a live relestd and
//     write disjoint per-trial result slots. They never touch estimate
//     reductions — those run on the server, through the parallel pool —
//     and the static round-robin job assignment keeps collected results
//     independent of goroutine completion order.
//   - internal/cluster: the coordinator's accept loop plus its
//     scatter-gather fanouts (via workload.Fanout), which write disjoint
//     per-shard outcome slots. Estimation itself happens on the shard
//     nodes through internal/parallel; the coordinator only merges
//     already-computed partials, in shard-index order, so cluster
//     estimates stay bit-identical across fanout scheduling.
var goAllowedPkgs = []string{"internal/parallel", "internal/server", "internal/workload", "internal/cluster"}

func runRawGo(p *Pass) {
	for _, allowed := range goAllowedPkgs {
		if strings.HasSuffix(p.Pkg.Path, allowed) {
			return
		}
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(), "go statement outside %s; use parallel.For/ForErrRec so results reduce in index order and estimates stay bit-identical across worker counts", strings.Join(goAllowedPkgs, ", "))
			}
			return true
		})
	}
}
