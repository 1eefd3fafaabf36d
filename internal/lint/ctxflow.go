package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow protects the cancellation contract: a caller that hands an
// entry point its context.Context must stay able to cancel everything the
// call does (the relestd request path aborts estimates between sampling
// rounds on client disconnect; substituting a fresh context anywhere on
// that path silently breaks it). The rule reports:
//
//   - a call passing context.Background() or context.TODO() inside any
//     function that already holds a caller's context — a ctx parameter or
//     an *http.Request (whose Context() carries the client's) — the
//     substitution detaches the callee from the caller's lifetime;
//   - an exported function or method that takes a context.Context but
//     never references it, while its call-graph-reachable callees include
//     context-aware module functions: the signature promises cancellation
//     that the body cannot deliver.
//
// Functions WITHOUT a ctx parameter are free to mint Background — that is
// how main() entry points are supposed to work. Interface-compat parameters that are deliberately unused carry
// //lint:ignore ctxflow with the justification.
var CtxFlow = &Analyzer{
	Name:      "ctxflow",
	Doc:       "entry points holding a caller's context must thread it: no Background substitution, no dropped ctx parameters",
	RunModule: runCtxFlow,
}

func runCtxFlow(mp *ModulePass) {
	graph := mp.Graph()
	for _, n := range graph.Nodes {
		if n.Fn == nil {
			continue
		}
		pkg := n.Pkg
		ctxParam := contextParam(n.Type())
		holdsCaller := ctxParam != nil || hasRequestParam(n.Type())
		if holdsCaller {
			// Background/TODO substitution anywhere in the body, nested
			// literals included (they share the enclosing ctx).
			ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, ok := contextMint(pkg, call); ok {
					mp.Reportf(call.Pos(), "context.%s() inside %s, which already holds the caller's context; thread the caller's ctx so cancellation reaches this call", name, n.Name())
				}
				return true
			})
		}
		// Dropped ctx: exported, has a ctx param, never reads it, yet
		// reaches context-aware module code it could have forwarded to.
		if ctxParam == nil || !n.Fn.Exported() {
			continue
		}
		if usesObject(pkg, n.Decl.Body, ctxParam) {
			continue
		}
		if fwd := reachableCtxAware(graph, n); fwd != "" {
			mp.Reportf(n.Decl.Pos(), "exported %s accepts a context.Context but never uses it, while reaching the context-aware %s; thread the ctx through (or drop the parameter) so callers can cancel", n.Name(), fwd)
		}
	}
}

// contextParam returns the first parameter (receiver excluded) of type
// context.Context, or nil.
func contextParam(sig *types.Signature) *types.Var {
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isContextType(p.Type()) {
			return p
		}
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// hasRequestParam reports whether the signature takes a *http.Request
// (an HTTP handler shape: the caller's context rides on the request).
func hasRequestParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		ptr, ok := sig.Params().At(i).Type().(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http" {
			return true
		}
	}
	return false
}

// contextMint reports whether call is context.Background() or
// context.TODO().
func contextMint(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name(), true
	}
	return "", false
}

// usesObject reports whether body references obj.
func usesObject(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// reachableCtxAware returns the name of the first (in graph order)
// context-taking module function reachable from n — its forwarding
// opportunity — or "". Graph order keeps the finding text stable.
func reachableCtxAware(graph *CallGraph, n *CGNode) string {
	reach := graph.Reachable([]*CGNode{n})
	for _, m := range graph.Nodes {
		if m == n || m.Fn == nil || !reach[m] {
			continue
		}
		if contextParam(m.Type()) != nil {
			return m.Name()
		}
	}
	return ""
}
