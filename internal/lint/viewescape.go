package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ViewEscape statically guards the storage engine's copy-on-write
// invariant. relation.Row values and the *Relation views minted by
// Subset/Clone/Extend/Alias are zero-copy: they read the base relation's column vectors
// in place, snapshot-clamped at creation time. That is exactly what makes
// sampling cheap — and exactly what makes a retained view dangerous: a
// view outliving the statement that made it can silently diverge from (or
// race with) its base. Outside internal/relation the rule flags:
//
//   - a Row or freshly-minted Subset/Clone/Extend/Alias view stored into a struct
//     field (composite literal or field assignment): the field pins the
//     base's columns and, after a base Sort or incremental rebuild, reads
//     remapped rows;
//   - a Row or view captured by a goroutine closure (`go` statements and
//     worker closures handed to internal/parallel): the closure reads the
//     view concurrently with whatever the spawner does next;
//   - an append-family call (Append, MustAppend, AppendRow, AppendFrom,
//     AppendJoined, Grow) on a base that already has a live view in the
//     same function: the capacity-clamped view cannot see the appended
//     rows, so downstream code silently computes on a stale prefix;
//   - a Row returned by an exported function: public APIs hand out
//     owned data (Materialize / Compact), not aliases into column storage.
//
// Deliberate retention (the synopsis sample views are the design) carries
// //lint:ignore viewescape with the justification.
var ViewEscape = &Analyzer{
	Name: "viewescape",
	Doc:  "zero-copy Row/Subset views must not outlive their statement: no struct fields, goroutine captures, appends past a live view, or exported Row returns",
	Run:  runViewEscape,
}

// viewMethods are the *Relation methods that mint zero-copy views.
var viewMethods = map[string]bool{"Subset": true, "Clone": true, "Extend": true, "Alias": true}

// appendMethods are the *Relation methods that grow the base in place.
var appendMethods = map[string]bool{
	"Append": true, "MustAppend": true, "AppendRow": true,
	"AppendFrom": true, "AppendJoined": true, "Grow": true,
}

func runViewEscape(p *Pass) {
	if strings.HasSuffix(p.Pkg.Path, relationPkgSuffix) {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkViewEscapes(p, fd)
		}
	}
}

// viewLocal records one view-typed local: where it was created and which
// object it is a view of.
type viewLocal struct {
	pos  token.Pos
	base types.Object // base relation object, nil when unknown
	expr string       // rendered creation expression for messages
	uses []token.Pos  // every later read of the view object
}

// checkViewEscapes runs all four checks over one function body.
func checkViewEscapes(p *Pass, fd *ast.FuncDecl) {
	views := map[types.Object]*viewLocal{} // view-provenance locals
	// Pass 1: collect view locals (x := base.Subset(...) / Clone) and every
	// use position, including Row-typed objects (params and locals).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if i >= len(x.Lhs) {
					break
				}
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isViewCall(p, call) {
					continue
				}
				id, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if obj := p.ObjectOf(id); obj != nil {
					views[obj] = &viewLocal{
						pos:  call.Pos(),
						base: viewCallBase(p, call),
						expr: types.ExprString(rhs),
					}
				}
			}
		case *ast.Ident:
			if obj := p.ObjectOf(x); obj != nil {
				if v, ok := views[obj]; ok && x.Pos() > v.pos {
					v.uses = append(v.uses, x.Pos())
				}
			}
		}
		return true
	})

	isView := func(e ast.Expr) (string, bool) {
		e = ast.Unparen(e)
		if call, ok := e.(*ast.CallExpr); ok && isViewCall(p, call) {
			return types.ExprString(e), true
		}
		if isRowType(p.TypeOf(e)) {
			return types.ExprString(e), true
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := p.ObjectOf(id); obj != nil {
				if v, ok := views[obj]; ok {
					return v.expr, true
				}
			}
		}
		return "", false
	}

	// Pass 2: the escape checks.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			if _, ok := p.TypeOf(x).Underlying().(*types.Struct); !ok {
				return true
			}
			for _, elt := range x.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if src, ok := isView(val); ok {
					p.Reportf(val.Pos(), "zero-copy view %s stored in a struct field outlives its base's snapshot; Compact it or re-derive the view at use (suppress with //lint:ignore viewescape <why retention is safe>)", src)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if i >= len(x.Rhs) {
					break
				}
				if _, isSel := ast.Unparen(lhs).(*ast.SelectorExpr); !isSel {
					continue
				}
				if !isFieldWrite(p, lhs) {
					continue
				}
				if src, ok := isView(x.Rhs[i]); ok {
					p.Reportf(x.Rhs[i].Pos(), "zero-copy view %s stored in struct field %s outlives its base's snapshot; Compact it or re-derive the view at use (suppress with //lint:ignore viewescape <why retention is safe>)", src, types.ExprString(lhs))
				}
			}
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				reportViewCaptures(p, lit, views, "goroutine closure")
			}
		case *ast.CallExpr:
			if fn := calleeFunc(p, x); fn != nil && fn.Pkg() != nil &&
				strings.HasSuffix(fn.Pkg().Path(), "internal/parallel") && len(x.Args) > 0 {
				if lit, ok := ast.Unparen(x.Args[len(x.Args)-1]).(*ast.FuncLit); ok {
					reportViewCaptures(p, lit, views, "parallel worker closure")
				}
			}
			// Append past a live view of the same base.
			if fn := calleeFunc(p, x); fn != nil && fn.Pkg() != nil &&
				strings.HasSuffix(fn.Pkg().Path(), relationPkgSuffix) && appendMethods[fn.Name()] {
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
					if baseID, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
						base := p.ObjectOf(baseID)
						for _, v := range views {
							if v.base != nil && v.base == base && v.pos < x.Pos() && usedAfter(v, x.Pos()) {
								p.Reportf(x.Pos(), "%s on %s happens after the zero-copy view %s was taken and the view is read again later; the capacity-clamped view cannot see appended rows — append first, or Compact the view", fn.Name(), baseID.Name, v.expr)
							}
						}
					}
				}
			}
		case *ast.ReturnStmt:
			if !fd.Name.IsExported() {
				return true
			}
			for _, res := range x.Results {
				if isRowType(p.TypeOf(res)) {
					p.Reportf(res.Pos(), "exported %s returns a relation.Row view aliasing column storage; return row.Materialize() (owned) instead", fd.Name.Name)
				}
			}
		}
		return true
	})
}

// usedAfter reports whether the view is read at any position after pos.
func usedAfter(v *viewLocal, pos token.Pos) bool {
	for _, u := range v.uses {
		if u > pos {
			return true
		}
	}
	return false
}

// reportViewCaptures flags view-typed free variables referenced inside a
// concurrently-executed closure.
func reportViewCaptures(p *Pass, lit *ast.FuncLit, views map[types.Object]*viewLocal, what string) {
	reported := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.ObjectOf(id)
		if obj == nil || reported[obj] {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true // declared inside the closure (params included)
		}
		_, isViewLocal := views[obj]
		if isViewLocal || isRowType(obj.Type()) {
			reported[obj] = true
			p.Reportf(id.Pos(), "zero-copy view %s captured by a %s; the closure reads column storage concurrently with the spawner — pass an owned copy (Materialize/Compact) instead", id.Name, what)
		}
		return true
	})
}

// isRowType reports whether t is relation.Row.
func isRowType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Row" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), relationPkgSuffix)
}

// isViewCall reports whether call mints a zero-copy view (Relation.Subset,
// Relation.Clone, Relation.Extend or Relation.Alias).
func isViewCall(p *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), relationPkgSuffix) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return viewMethods[fn.Name()]
}

// viewCallBase resolves the receiver object of a view-minting call
// (base.Subset(...) → base), or nil for chained receivers.
func viewCallBase(p *Pass, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return p.ObjectOf(id)
}

// isFieldWrite reports whether lhs selects a struct field (as opposed to a
// package-level name qualified by a package ident).
func isFieldWrite(p *Pass, lhs ast.Expr) bool {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if s, ok := p.Pkg.Info.Selections[sel]; ok {
		return s.Kind() == types.FieldVal
	}
	return false
}
