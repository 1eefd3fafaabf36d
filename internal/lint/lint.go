// Package lint is relest's in-tree static-analysis framework. It loads and
// type-checks every package in the module using only the standard library
// (go/parser + go/types, with imports from outside the module read by
// go/importer "gc" from the export data `go list -export` reports; the
// module has zero external dependencies and must stay that way) and runs
// a set of repo-specific analyzers that machine-check the invariants the
// estimation engine depends on:
//
//   - estimates must be bit-reproducible across runs and worker counts, so
//     float accumulation must never depend on randomized map iteration
//     order (maprange-float) and all concurrency must flow through the
//     index-ordered reductions of internal/parallel (rawgo);
//   - experiments must be replayable, so all randomness must derive from
//     the explicitly seeded generators in internal/sampling (rawrand);
//   - float comparisons must be deliberate (floateq) and errors must not
//     be silently discarded (errdrop).
//
// Findings are suppressed site-by-site with
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// placed on the offending line or on the line directly above it. The
// reason is mandatory: a directive without one does not suppress anything
// and is itself reported (rule "bad-ignore").
//
// Test files (*_test.go) are not loaded: tests construct seeded generators
// freely and report failures through *testing.T, so the production-code
// rules do not apply to them.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one named rule: either a per-package syntactic check (Run)
// or a module-wide interprocedural one (RunModule), which sees every
// loaded package at once and shares the call-graph/taint artifacts built
// for the run.
type Analyzer struct {
	// Name is the rule name used in output ("[name]") and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description of the invariant the rule protects.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	// Exactly one of Run and RunModule is set.
	Run func(pass *Pass)
	// RunModule inspects the whole loaded package set at once.
	RunModule func(pass *ModulePass)
}

// All returns the full analyzer set in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		MapRangeFloat, MapRangeRand, RawRand, RawGo, FloatEq, ErrDrop, TupleCopy, Materialize,
		DetFlow, ViewEscape, CtxFlow, WorkerPurity,
	}
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package

	analyzer *Analyzer
	report   func(Finding)
}

// Reportf records a finding at pos under the pass's rule.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Pos:  p.Fset.Position(pos),
		Rule: p.analyzer.Name,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e in the pass's package, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object (use or def), or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.Uses[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Defs[id]
}

// ModulePass carries a module analyzer's view of the whole loaded package
// set, plus lazily-built shared artifacts (call graph, taint summaries)
// every module analyzer in the run reuses.
type ModulePass struct {
	Fset *token.FileSet
	Pkgs []*Package

	analyzer *Analyzer
	report   func(Finding)
	art      *artifacts
}

// artifacts holds the per-Run interprocedural state shared across module
// analyzers.
type artifacts struct {
	graph *CallGraph
	taint *TaintEngine
}

// Graph returns the call graph over the pass's packages, building it on
// first use.
func (m *ModulePass) Graph() *CallGraph {
	if m.art.graph == nil {
		m.art.graph = BuildCallGraph(m.Pkgs)
	}
	return m.art.graph
}

// Taint returns the taint engine (summaries at fixpoint) over the pass's
// call graph, building it on first use.
func (m *ModulePass) Taint() *TaintEngine {
	if m.art.taint == nil {
		m.art.taint = NewTaintEngine(m.Graph())
	}
	return m.art.taint
}

// Reportf records a finding at pos under the pass's rule.
func (m *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	m.report(Finding{
		Pos:  m.Fset.Position(pos),
		Rule: m.analyzer.Name,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String formats the finding as "file:line:col: [rule] message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	rules  []string // rule names this directive suppresses
	reason string   // mandatory free-text justification
	line   int      // line the comment sits on
	file   string   // file the comment sits in (set by Run)
	used   bool     // suppressed at least one finding this run
}

const ignorePrefix = "//lint:ignore"

// parseIgnores extracts every //lint:ignore directive from a file.
// Malformed directives (no rule, or no reason) are returned as findings so
// they cannot silently suppress anything.
func parseIgnores(fset *token.FileSet, file *ast.File) ([]ignoreDirective, []Finding) {
	var dirs []ignoreDirective
	var bad []Finding
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, ignorePrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //lint:ignorefoo — not ours
			}
			fields := strings.Fields(rest)
			pos := fset.Position(c.Pos())
			if len(fields) < 2 {
				bad = append(bad, Finding{
					Pos:  pos,
					Rule: "bad-ignore",
					Msg:  "//lint:ignore needs a rule name and a reason: //lint:ignore <rule>[,<rule>] <reason>",
				})
				continue
			}
			dirs = append(dirs, ignoreDirective{
				rules:  strings.Split(fields[0], ","),
				reason: strings.Join(fields[1:], " "),
				line:   pos.Line,
			})
		}
	}
	return dirs, bad
}

// suppresses reports whether d covers rule at the given line: the
// directive applies to its own line (trailing comment) and to the line
// directly below it (comment-above style).
func (d ignoreDirective) suppresses(rule string, line int) bool {
	if line != d.line && line != d.line+1 {
		return false
	}
	for _, r := range d.rules {
		if r == rule {
			return true
		}
	}
	return false
}

// Run executes the analyzers over the packages and returns unsuppressed
// findings sorted by file, line, column, rule. Malformed //lint:ignore
// directives are reported as "bad-ignore" findings; directives that
// suppressed nothing, even though every rule they name ran, are reported
// as "stale-ignore" findings so dead suppressions cannot accumulate.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	// Parse every file's directives up front: module analyzers report
	// across package boundaries, so suppression needs a global index.
	ignoresByFile := map[string][]*ignoreDirective{}
	var allDirs []*ignoreDirective
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			dirs, bad := parseIgnores(pkg.Fset, f)
			findings = append(findings, bad...)
			for i := range dirs {
				d := &dirs[i]
				d.file = name
				ignoresByFile[name] = append(ignoresByFile[name], d)
				allDirs = append(allDirs, d)
			}
		}
	}
	report := func(f Finding) {
		for _, d := range ignoresByFile[f.Pos.Filename] {
			if d.suppresses(f.Rule, f.Pos.Line) {
				d.used = true
				return
			}
		}
		findings = append(findings, f)
	}
	art := &artifacts{}
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		for _, pkg := range pkgs {
			a.Run(&Pass{Fset: pkg.Fset, Pkg: pkg, analyzer: a, report: report})
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil || len(pkgs) == 0 {
			continue
		}
		a.RunModule(&ModulePass{
			Fset:     pkgs[0].Fset,
			Pkgs:     pkgs,
			analyzer: a,
			report:   report,
			art:      art,
		})
	}
	// Stale-ignore audit: a directive is dead when every rule it names ran
	// in this invocation and it still suppressed nothing. Directives naming
	// a rule outside the run (e.g. under -rules) are left alone — they may
	// be live for the full set.
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, d := range allDirs {
		if d.used {
			continue
		}
		checkable := true
		for _, r := range d.rules {
			if !ran[r] {
				checkable = false
				break
			}
		}
		if checkable {
			findings = append(findings, Finding{
				Pos:  token.Position{Filename: d.file, Line: d.line, Column: 1},
				Rule: "stale-ignore",
				Msg: fmt.Sprintf("//lint:ignore %s suppresses nothing on this line or the one below; delete the directive (or fix the rule name)",
					strings.Join(d.rules, ",")),
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return findings
}

// Relativize rewrites finding filenames relative to root (best-effort; the
// absolute path is kept when root does not contain the file).
func Relativize(findings []Finding, root string) {
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].Pos.Filename = rel
		}
	}
}

// --- shared type helpers ---

// isFloat reports whether t's underlying type is a floating-point basic
// type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// carriesFloat reports whether t is float-typed or is a struct with at
// least one float-typed field (e.g. an Estimate or GroupEstimate record).
func carriesFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	if isFloat(t) {
		return true
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < s.NumFields(); i++ {
		if isFloat(s.Field(i).Type()) {
			return true
		}
	}
	return false
}

// isInteger reports whether t's underlying type is an integer basic type.
func isInteger(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isErrorType reports whether t is the built-in error interface type.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// calleeFunc resolves the called function object of a call expression, or
// nil for calls through function-typed values and built-ins.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}
