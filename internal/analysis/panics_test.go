package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// panicAllowlist is the module-relative path of the vetted inventory of
// library panic sites.
const panicAllowlist = "internal/analysis/panic_allowlist.txt"

// parseAllowlist reads "pkgpath funcname" entries, '#' starting a
// comment, into a map from entry to its line.
func parseAllowlist(content string) (map[string]int, error) {
	entries := map[string]int{}
	for i, line := range strings.Split(content, "\n") {
		line, _, _ = strings.Cut(line, "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		key := strings.Join(fields, " ")
		if len(fields) != 2 {
			return nil, fmt.Errorf("line %d: allowlist entry must be \"pkgpath funcname\", got %q", i+1, key)
		}
		if _, dup := entries[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate allowlist entry %q", i+1, key)
		}
		entries[key] = i + 1
	}
	return entries, nil
}

// panicSites maps "pkgpath funcname" (funcname as MustParse,
// BitString.Bit or (*List).Insert) to the first panic( call in every
// function of the module's library packages: not package main, not test
// files, testdata or nested modules. Files are parsed whatever their
// build tags, so both tag states are covered at once.
func panicSites(t *testing.T, root string) map[string]token.Position {
	t.Helper()
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	sites := map[string]token.Position{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			_, nested := os.Stat(filepath.Join(path, "go.mod"))
			if path != root && (nested == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil || f.Name.Name == "main" {
			return err
		}
		pkg := modPath
		if rel, _ := filepath.Rel(root, filepath.Dir(path)); rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := pkg + " " + funcKeyName(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					if _, seen := sites[key]; !seen {
						sites[key] = fset.Position(call.Pos())
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sites
}

// funcKeyName renders a FuncDecl as an allowlist function name.
func funcKeyName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	switch r := unparen(fd.Recv.List[0].Type).(type) {
	case *ast.StarExpr:
		if id, ok := unparen(r.X).(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	case *ast.Ident:
		return r.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// TestPanicSites keeps every library panic a reviewed one: a panic( in a
// function the allowlist does not name fails, and so does an entry whose
// function no longer panics. A panic is acceptable only for a
// documented programmer error, never for a data-dependent failure.
func TestPanicSites(t *testing.T) {
	root := moduleRoot(t)
	data, err := os.ReadFile(filepath.Join(root, panicAllowlist))
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := parseAllowlist(string(data))
	if err != nil {
		t.Fatalf("%s: %v", panicAllowlist, err)
	}
	sites := panicSites(t, root)
	for key, pos := range sites {
		if allowed[key] == 0 {
			t.Errorf("%s: unvetted panic; add %q to %s after review or return an error", pos, key, panicAllowlist)
		}
	}
	for key, line := range allowed {
		if _, ok := sites[key]; !ok {
			t.Errorf("%s:%d: stale allowlist entry %q: the function no longer panics; delete the line", panicAllowlist, line, key)
		}
	}
}

// TestAllowlistParsing covers comments, blank lines and error cases.
func TestAllowlistParsing(t *testing.T) {
	al, err := parseAllowlist("# c\n\npkg Fn # trailing\npkg Fn2\n")
	if err != nil {
		t.Fatal(err)
	}
	if al["pkg Fn"] != 3 || al["pkg Fn2"] != 4 || len(al) != 2 {
		t.Fatalf("entries = %v", al)
	}
	if _, err := parseAllowlist("only-one-field\n"); err == nil {
		t.Fatal("accepted malformed entry")
	}
	if _, err := parseAllowlist("pkg Fn\npkg Fn\n"); err == nil {
		t.Fatal("accepted duplicate entry")
	}
}
