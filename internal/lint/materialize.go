package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Materialize keeps exact counting off the materializing evaluator.
// algebra.Count counts σ/⋈/× expressions with the term evaluator, which
// holds candidate lists and hash indexes but nothing per output row, and
// routes only π and set operations through Eval; algebra.Eval materializes
// every intermediate relation and is kept as Count's set-semantics oracle
// and as the escape hatch for callers that genuinely need a fully
// materialized result. The rule flags, outside internal/algebra itself,
// every call to that materializing entry point.
//
// Deliberate uses (exact-answer export paths, oracles) carry a
// //lint:ignore materialize directive with the justification.
var Materialize = &Analyzer{
	Name: "materialize",
	Doc:  "exact cardinalities go through algebra.Count; materializing Eval is an annotated escape hatch",
	Run:  runMaterialize,
}

// algebraPkgSuffix identifies the evaluator package, which owns Count and
// Eval and is free to call the materializing one (Count routes π and set
// operations to it, and its property tests use it as the oracle).
const algebraPkgSuffix = "internal/algebra"

func runMaterialize(p *Pass) {
	if strings.HasSuffix(p.Pkg.Path, algebraPkgSuffix) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil || fn.Name() != "Eval" {
				return true
			}
			if !strings.HasSuffix(fn.Pkg().Path(), algebraPkgSuffix) {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil {
				return true
			}
			p.Reportf(call.Pos(), "algebra.Eval materializes every intermediate relation; count with algebra.Count")
			return true
		})
	}
}
