package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked (non-test) package.
type Package struct {
	// Path is the package's import path ("relest/internal/estimator").
	Path string
	// Dir is the package's source directory.
	Dir string
	// Fset is the file set all positions resolve through.
	Fset *token.FileSet
	// Files are the package's non-test files, sorted by filename.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's expression/object tables.
	Info *types.Info
}

// Loader parses and type-checks the module's packages from source. Module
// internal imports resolve by mapping the import path under the module
// root; every other import resolves from the gc export data the go
// command lists for it (stdImporter).
type Loader struct {
	fset    *token.FileSet
	modPath string
	modRoot string
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle detection
}

// NewLoader creates a loader for the module containing dir: it walks up
// from dir to the nearest go.mod and reads the module path from it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	l := &Loader{
		fset:    token.NewFileSet(),
		modPath: modPath,
		modRoot: root,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	if l.std, err = l.stdImporter(); err != nil {
		return nil, err
	}
	return l, nil
}

// stdImporter returns the importer of the packages outside the module:
// go/importer's "gc" importer over the export data that one
// `go list -export -deps` lists for every such package the module's
// sources import (the go command compiles it into its build cache once;
// reading it back costs milliseconds), where type-checking the standard
// library from source cost most of a lint run. A package a fixture loaded
// later imports is listed when first asked for.
func (l *Loader) stdImporter() (types.Importer, error) {
	ex := &exportData{dir: l.modRoot, files: map[string]string{}}
	paths, err := l.outsideImports()
	if err != nil {
		return nil, err
	}
	if err := ex.list(paths...); err != nil {
		return nil, err
	}
	return importer.ForCompiler(l.fset, "gc", ex.open), nil
}

// outsideImports lists, sorted, the import paths outside the module that
// the module's non-test sources name, reading import clauses only.
func (l *Loader) outsideImports() ([]string, error) {
	seen := map[string]bool{}
	err := l.walkPackageDirs(func(dir string) error {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, imp := range f.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil {
						return err
					}
					if path != l.modPath && !strings.HasPrefix(path, l.modPath+"/") {
						seen[path] = true
					}
				}
			}
		}
		return nil
	})
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths, err
}

// exportData maps import paths to the export data files the go command
// lists for them, run in dir.
type exportData struct {
	dir   string
	files map[string]string
}

// list adds the export data files of paths and their dependencies.
func (ex *exportData) list(paths ...string) error {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)...)
	cmd.Dir = ex.dir
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("lint: go list -export: %w", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			ex.files[path] = file
		}
	}
	return nil
}

// open is the gc importer's lookup: the export data of path, listed on
// first use when no earlier listing covered it.
func (ex *exportData) open(path string) (io.ReadCloser, error) {
	if _, ok := ex.files[path]; !ok {
		if err := ex.list(path); err != nil {
			return nil, err
		}
	}
	file, ok := ex.files[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(file)
}

// ModuleRoot returns the absolute path of the module root directory.
func (l *Loader) ModuleRoot() string { return l.modRoot }

// ModulePath returns the module's import path.
func (l *Loader) ModulePath() string { return l.modPath }

// Import implements types.Importer: module-internal paths load (and
// type-check) from source under the module root, everything else reads
// its gc export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module-internal import path to its source directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	return filepath.Join(l.modRoot, filepath.FromSlash(rel))
}

// loadPath loads the importable (non-main) package at a module-internal
// import path, memoized.
func (l *Loader) loadPath(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	pkgs, err := l.LoadDir(path, l.dirFor(path))
	if err != nil {
		return nil, err
	}
	for _, pkg := range pkgs {
		if pkg.Types.Name() != "main" {
			return pkg, nil
		}
	}
	return nil, fmt.Errorf("lint: no importable package at %s", path)
}

// LoadDir parses and type-checks every non-test package rooted at dir
// (non-recursive), registering importable ones under importPath. It is
// exported so tests can load fixture packages from testdata, which the
// module walk skips.
func (l *Loader) LoadDir(importPath, dir string) ([]*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		// Already type-checked via import recursion; re-checking would mint
		// a second *types.Package and break type identity for later importers.
		return []*Package{pkg}, nil
	}
	astPkgs, err := parser.ParseDir(l.fset, dir, func(fi os.FileInfo) bool {
		return strings.HasSuffix(fi.Name(), ".go") && !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("lint: parse %s: %w", dir, err)
	}
	names := make([]string, 0, len(astPkgs))
	for name := range astPkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []*Package
	for _, name := range names {
		apkg := astPkgs[name]
		fileNames := make([]string, 0, len(apkg.Files))
		for fn := range apkg.Files {
			fileNames = append(fileNames, fn)
		}
		sort.Strings(fileNames)
		files := make([]*ast.File, 0, len(fileNames))
		for _, fn := range fileNames {
			files = append(files, apkg.Files[fn])
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: l}
		tpkg, err := conf.Check(importPath, l.fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
		}
		pkg := &Package{
			Path:  importPath,
			Dir:   dir,
			Fset:  l.fset,
			Files: files,
			Types: tpkg,
			Info:  info,
		}
		if name != "main" {
			l.pkgs[importPath] = pkg
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadAll discovers every package directory under the module root
// (skipping testdata, vendor, and hidden/underscore directories), loads
// each, and returns the packages sorted by import path (main packages
// included).
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := l.walkPackageDirs(func(dir string) error {
		dirs = append(dirs, dir)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.modRoot, dir)
		if err != nil {
			return nil, err
		}
		importPath := l.modPath
		if rel != "." {
			importPath = l.modPath + "/" + filepath.ToSlash(rel)
		}
		pkgs, err := l.LoadDir(importPath, dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkgs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// walkPackageDirs calls visit with every directory under the module root
// that holds a non-test Go file, skipping testdata, vendor, and hidden or
// underscore directories.
func (l *Loader) walkPackageDirs(visit func(dir string) error) error {
	return filepath.WalkDir(l.modRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.modRoot && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				return visit(path)
			}
		}
		return nil
	})
}
