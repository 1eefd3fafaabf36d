package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// TupleCopy protects the storage engine's zero-copy discipline. Since the
// columnar refactor, relations store typed column vectors and hot paths
// read rows in place (Relation.Value, Row.Value, EachRow); materializing a
// row as a Tuple allocates a boxed []Value and is reserved for cold paths
// (export, display, stream payloads). The rule flags, outside
// internal/relation itself, every call to the materializing escape hatches
// declared there:
//
//   - Relation.Materialize / Row.Materialize, which copy a stored row out
//     of column storage;
//   - Relation.Each, which materializes one Tuple per visited row
//     (EachRow is the allocation-free iteration).
//
// Constructing fresh Tuples (generators, stream payloads, Append calls) is
// not flagged — only copies out of storage are. Deliberate cold-path uses
// carry a //lint:ignore tuplecopy directive with the justification.
var TupleCopy = &Analyzer{
	Name: "tuplecopy",
	Doc:  "rows must be read in place from column storage; Tuple materialization is an annotated escape hatch",
	Run:  runTupleCopy,
}

// relationPkgSuffix identifies the storage-engine package, which is free
// to materialize (it owns the representation).
const relationPkgSuffix = "internal/relation"

// tupleCopyMethods are the materializing escape hatches by method name.
var tupleCopyMethods = map[string]string{
	"Materialize": "copies the row out of column storage",
	"Each":        "materializes one Tuple per visited row; iterate with EachRow instead",
}

func runTupleCopy(p *Pass) {
	if strings.HasSuffix(p.Pkg.Path, relationPkgSuffix) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if !strings.HasSuffix(fn.Pkg().Path(), relationPkgSuffix) {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			why, hatch := tupleCopyMethods[fn.Name()]
			if !hatch {
				return true
			}
			p.Reportf(call.Pos(), "%s.%s %s; hot paths read values in place (Value/IsNull/Key on a Row)",
				recvTypeName(sig.Recv().Type()), fn.Name(), why)
			return true
		})
	}
}
