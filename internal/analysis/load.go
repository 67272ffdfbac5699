// Package analysis implements labelvet, a stdlib-only static-analysis
// suite: lexicographic label comparison through the canonical
// Compare/Equal methods (Definition 3.1), dropped error returns, and
// fields accessed only under the mutex their vet:guardedby comment
// names. Its tests also hold the library's panic sites to an
// allowlist.
//
// The suite is built directly on go/ast, go/parser, go/types and
// go/token — no golang.org/x/tools dependency — so go.mod stays
// dependency-free. Loading works the way go/types intends: packages of
// this module are parsed from source and type-checked in dependency
// order with an importer that resolves module-internal paths itself
// and delegates standard-library paths to the source importer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string // import path, e.g. "repro/internal/cdbs"
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors holds type-checker errors; analyzers still run on
	// packages with errors, but Vet reports them and fails.
	TypeErrors []error
}

// Loader loads and type-checks packages of one module from source.
type Loader struct {
	ModuleDir  string
	ModulePath string

	// Tags holds extra build tags (e.g. "invariants") honoured when
	// selecting files, in addition to the default context.
	Tags []string

	// IncludeTests selects _test.go files of the package itself
	// (in-package tests). External test packages (package foo_test)
	// are loaded as separate pseudo-packages with path "path.test".
	IncludeTests bool

	Fset *token.FileSet

	std     types.ImporterFrom
	ctx     build.Context
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle detection
	order   []string            // load completion order
}

// NewLoader locates the module root at or above dir and prepares a
// loader. It reads the module path from go.mod.
func NewLoader(dir string, tags []string, includeTests bool) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ctx := build.Default
	ctx.BuildTags = append(append([]string{}, ctx.BuildTags...), tags...)
	return &Loader{
		ModuleDir:    root,
		ModulePath:   modPath,
		Tags:         tags,
		IncludeTests: includeTests,
		Fset:         fset,
		std:          importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		ctx:          ctx,
		pkgs:         map[string]*Package{},
		loading:      map[string]bool{},
	}, nil
}

// findModuleRoot walks up from dir until it finds go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		dir = parent
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load resolves package patterns ("./...", "./dir/...", "./dir", or
// import paths) and returns the matched packages in load order.
// Directories named testdata, vendor, or starting with "." or "_" are
// skipped by wildcard patterns but can be loaded by explicit path.
func (ld *Loader) Load(patterns ...string) ([]*Package, error) {
	var paths []string
	seen := map[string]bool{}
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			dirs, err := ld.walkDirs(ld.ModuleDir)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				add(ld.importPathFor(d))
			}
		case strings.HasSuffix(pat, "/..."):
			root := ld.resolveDir(strings.TrimSuffix(pat, "/..."))
			dirs, err := ld.walkDirs(root)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				add(ld.importPathFor(d))
			}
		default:
			add(ld.importPathFor(ld.resolveDir(pat)))
		}
	}
	var out []*Package
	for _, p := range paths {
		pkg, err := ld.load(p)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no files selected (e.g. all behind a tag)
		}
		out = append(out, pkg)
		if ld.IncludeTests {
			xt, err := ld.loadExternalTest(p)
			if err != nil {
				return nil, err
			}
			if xt != nil {
				out = append(out, xt)
			}
		}
	}
	return out, nil
}

// resolveDir maps a pattern like "./internal/cdbs" or
// "repro/internal/cdbs" to a directory.
func (ld *Loader) resolveDir(pat string) string {
	if rest, ok := strings.CutPrefix(pat, ld.ModulePath); ok && (rest == "" || rest[0] == '/') {
		return filepath.Join(ld.ModuleDir, filepath.FromSlash(strings.TrimPrefix(rest, "/")))
	}
	if filepath.IsAbs(pat) {
		return filepath.Clean(pat)
	}
	return filepath.Join(ld.ModuleDir, filepath.FromSlash(pat))
}

// importPathFor maps a directory under the module root to its import
// path.
func (ld *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(ld.ModuleDir, dir)
	if err != nil || rel == "." {
		return ld.ModulePath
	}
	return ld.ModulePath + "/" + filepath.ToSlash(rel)
}

// walkDirs returns every directory under root containing at least one
// buildable .go file, skipping testdata, vendor and hidden dirs.
func (ld *Loader) walkDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := ld.goFilesIn(path, false)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// goFilesIn lists the buildable .go files of dir, applying build
// constraints. With tests true it returns only _test.go files.
func (ld *Loader) goFilesIn(dir string, tests bool) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") != tests {
			continue
		}
		ok, err := ld.ctx.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", filepath.Join(dir, name), err)
		}
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// load type-checks the module package with the given import path,
// caching the result. In-package test files are included when the
// loader was built with IncludeTests.
func (ld *Loader) load(path string) (*Package, error) {
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	dir := ld.resolveDir(path)
	names, err := ld.goFilesIn(dir, false)
	if err != nil {
		return nil, err
	}
	if ld.IncludeTests {
		tnames, err := ld.goFilesIn(dir, true)
		if err != nil {
			return nil, err
		}
		names = append(names, tnames...)
	}
	files, pkgName, err := ld.parseFiles(dir, names, func(name string) bool {
		return !strings.HasSuffix(name, "_test") // keep in-package files only
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		ld.pkgs[path] = nil
		return nil, nil
	}
	pkg, err := ld.check(path, dir, pkgName, files)
	if err != nil {
		return nil, err
	}
	ld.pkgs[path] = pkg
	ld.order = append(ld.order, path)
	return pkg, nil
}

// loadExternalTest loads the external test package (package foo_test)
// of path, if any, under the pseudo-path "path.test".
func (ld *Loader) loadExternalTest(path string) (*Package, error) {
	testPath := path + ".test"
	if pkg, ok := ld.pkgs[testPath]; ok {
		return pkg, nil
	}
	dir := ld.resolveDir(path)
	names, err := ld.goFilesIn(dir, true)
	if err != nil {
		return nil, err
	}
	files, pkgName, err := ld.parseFiles(dir, names, func(name string) bool {
		return strings.HasSuffix(name, "_test")
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		ld.pkgs[testPath] = nil
		return nil, nil
	}
	pkg, err := ld.check(testPath, dir, pkgName, files)
	if err != nil {
		return nil, err
	}
	ld.pkgs[testPath] = pkg
	return pkg, nil
}

// parseFiles parses the named files of dir, keeping those whose
// package clause satisfies keep.
func (ld *Loader) parseFiles(dir string, names []string, keep func(pkgName string) bool) ([]*ast.File, string, error) {
	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(ld.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, "", err
		}
		if !keep(f.Name.Name) {
			continue
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name != pkgName {
			return nil, "", fmt.Errorf("analysis: %s: package %s conflicts with %s", full, f.Name.Name, pkgName)
		}
		files = append(files, f)
	}
	return files, pkgName, nil
}

// check runs the type checker over one parsed package.
func (ld *Loader) check(path, dir, pkgName string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Info: info}
	conf := types.Config{
		Importer: ld,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(path, ld.Fset, files, info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	_ = pkgName
	pkg.Types = tpkg
	return pkg, nil
}

// Import implements types.Importer.
func (ld *Loader) Import(path string) (*types.Package, error) {
	return ld.ImportFrom(path, ld.ModuleDir, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// loaded from source by this loader; everything else (the standard
// library) is delegated to the compiler source importer.
func (ld *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rest, ok := strings.CutPrefix(path, ld.ModulePath); ok && (rest == "" || rest[0] == '/') {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	return ld.std.ImportFrom(path, dir, mode)
}

// IsTestFile reports whether the file enclosing pos is a _test.go
// file.
func (ld *Loader) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(ld.Fset.Position(pos).Filename, "_test.go")
}
