package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WorkerPurity is the static complement to `go test -race` for the
// estimation engine's determinism contract: closures handed to the
// internal/parallel pool run concurrently, and the pool's README is
// explicit — each task writes its result into an index-addressed slot and
// the caller reduces the slots in index order. The rule finds every
// worker closure passed to parallel.For/ForRec/ForErrRec and
// reports:
//
//   - a write to a captured variable that is not an element store into a
//     captured slice/array (the blessed slot pattern): plain assignments,
//     compound assignments, x++/x--, field writes, pointer stores, and
//     map element stores from inside a worker all race with sibling
//     workers or make the result depend on scheduling order;
//   - an assignment to a package-level variable anywhere in the functions
//     reachable from a worker closure through the call graph — shared
//     process state mutated from inside a fan-out, however many calls
//     deep. Mutation of shared state belongs in sync/atomic values (whose
//     updates are method calls, not assignments) or after the fan-out
//     joins.
//
// Receiver-field mutation behind a callee's own mutex is out of static
// scope (that is what the -race gate is for); the rule aims at the
// scheduling-order bug class -race cannot see: racy-but-unsynchronized
// float reductions that happen to survive the detector.
var WorkerPurity = &Analyzer{
	Name:      "workerpurity",
	Doc:       "parallel worker closures mutate shared state only via index-addressed slots or sync/atomic",
	RunModule: runWorkerPurity,
}

// poolEntryPoints are the internal/parallel fan-out functions whose last
// argument is the worker closure.
var poolEntryPoints = map[string]bool{"For": true, "ForRec": true, "ForErrRec": true}

func runWorkerPurity(mp *ModulePass) {
	graph := mp.Graph()
	var roots []*CGNode
	// Find every worker closure: a function literal passed as the worker
	// argument of a pool entry point (the pool package itself excluded —
	// it owns the scheduling).
	for _, n := range graph.Nodes {
		if strings.HasSuffix(n.Pkg.Path, parallelPkgSuffix) {
			continue
		}
		inspectOwn(n.Body(), func(x ast.Node) {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return
			}
			fn := calleeFuncInfo(n.Pkg.Info, call)
			if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), parallelPkgSuffix) ||
				!poolEntryPoints[fn.Name()] || len(call.Args) == 0 {
				return
			}
			switch arg := ast.Unparen(call.Args[len(call.Args)-1]).(type) {
			case *ast.FuncLit:
				if lit := graph.ByLit[arg]; lit != nil {
					roots = append(roots, lit)
					checkWorkerBody(mp, lit)
				}
			case *ast.Ident:
				if fnObj, ok := n.Pkg.Info.Uses[arg].(*types.Func); ok {
					if node := graph.ByFunc[fnObj]; node != nil {
						roots = append(roots, node)
					}
				}
			}
		})
	}
	if len(roots) == 0 {
		return
	}
	// Interprocedural half: package-level state mutated anywhere reachable
	// from a worker. Writes lexically inside a worker literal are already
	// covered (with more specific messages) by checkWorkerBody, so nodes
	// contained in a root literal are skipped. Index stores into
	// package-level slices stay allowed for shape-consistency with the slot
	// pattern; map stores and direct/field/pointer writes are not.
	reach := graph.Reachable(roots)
	insideRoot := func(pos token.Pos) bool {
		for _, r := range roots {
			if r.Lit != nil && pos >= r.Lit.Pos() && pos <= r.Lit.End() {
				return true
			}
		}
		return false
	}
	seen := map[token.Pos]bool{}
	for _, n := range graph.Nodes {
		if !reach[n] || insideRoot(n.Pos()) {
			continue
		}
		inspectOwn(n.Body(), func(x ast.Node) {
			var lhs []ast.Expr
			switch s := x.(type) {
			case *ast.AssignStmt:
				lhs = s.Lhs
			case *ast.IncDecStmt:
				lhs = []ast.Expr{s.X}
			default:
				return
			}
			for _, l := range lhs {
				if seen[l.Pos()] {
					continue
				}
				if idx, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
					if t := n.Pkg.Info.TypeOf(idx.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); !isMap {
							continue // slice/array slot store
						}
					}
				}
				obj := rootObj(n.Pkg, l)
				if obj == nil {
					continue
				}
				if v, ok := obj.(*types.Var); ok && isPackageLevel(v) {
					seen[l.Pos()] = true
					mp.Reportf(l.Pos(), "package-level %s is assigned inside %s, which is reachable from a parallel worker closure; move the write outside the fan-out or use a sync/atomic value", obj.Name(), n.Name())
				}
			}
		})
	}
}

// checkWorkerBody flags impure writes lexically inside one worker closure
// (nested literals included — they run on the worker's goroutine).
func checkWorkerBody(mp *ModulePass, root *CGNode) {
	pkg := root.Pkg
	captured := func(obj types.Object) bool {
		if obj == nil {
			return false
		}
		if v, ok := obj.(*types.Var); ok && isPackageLevel(v) {
			return true
		}
		return obj.Pos() < root.Lit.Pos() || obj.Pos() > root.Lit.End()
	}
	ast.Inspect(root.Lit.Body, func(x ast.Node) bool {
		var targets []ast.Expr
		var what string
		switch s := x.(type) {
		case *ast.AssignStmt:
			targets = s.Lhs
			what = "assigned"
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
				what = "accumulated into"
			}
		case *ast.IncDecStmt:
			targets = []ast.Expr{s.X}
			what = "accumulated into"
		default:
			return true
		}
		for _, l := range targets {
			switch lv := ast.Unparen(l).(type) {
			case *ast.Ident:
				if obj := objectOfInfo(pkg, lv); captured(obj) && lv.Name != "_" {
					mp.Reportf(l.Pos(), "captured variable %s is %s inside a parallel worker; workers write results into index-addressed slots (slot[i] = ...) and the caller reduces in index order", lv.Name, what)
				}
			case *ast.IndexExpr:
				obj := rootObj(pkg, lv.X)
				if !captured(obj) {
					continue
				}
				if t := pkg.Info.TypeOf(lv.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						mp.Reportf(l.Pos(), "captured map %s is written inside a parallel worker; concurrent map writes race — write into an index-addressed slice slot and merge after the join", types.ExprString(lv.X))
					}
					// Slice/array element stores are the blessed slot
					// pattern.
				}
			case *ast.SelectorExpr:
				if obj := rootObj(pkg, lv); captured(obj) && isFieldSelector(pkg, lv) {
					mp.Reportf(l.Pos(), "field %s of a captured value is %s inside a parallel worker; shared-struct mutation races with sibling workers — use a per-task slot or sync/atomic", types.ExprString(lv), what)
				}
			case *ast.StarExpr:
				if obj := rootObj(pkg, lv.X); captured(obj) {
					mp.Reportf(l.Pos(), "captured pointer %s is stored through inside a parallel worker; give each task its own slot instead", types.ExprString(lv.X))
				}
			}
		}
		return true
	})
}

// isPackageLevel reports whether v is a package-scope variable.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isFieldSelector reports whether sel selects a struct field.
func isFieldSelector(pkg *Package, sel *ast.SelectorExpr) bool {
	if s, ok := pkg.Info.Selections[sel]; ok {
		return s.Kind() == types.FieldVal
	}
	return false
}

// objectOfInfo resolves an identifier in pkg (uses, then defs).
func objectOfInfo(pkg *Package, id *ast.Ident) types.Object {
	if o := pkg.Info.Uses[id]; o != nil {
		return o
	}
	return pkg.Info.Defs[id]
}

// parallelPkgSuffix identifies the worker pool package.
const parallelPkgSuffix = "internal/parallel"
