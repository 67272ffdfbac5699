package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

// Allowlist is the vetted inventory of panic sites in library
// packages. Each entry is "pkgpath funcname" (funcname rendered as
// MustParse, BitString.Bit or (*List).Insert). A panic outside the
// list fails the build; a listed entry whose package no longer panics
// is reported as stale so the list cannot rot.
type Allowlist struct {
	File    string
	Entries map[string]int // key -> line in File
}

// LoadAllowlist reads an allowlist file; # starts a comment.
func LoadAllowlist(path string) (*Allowlist, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseAllowlist(path, string(data))
}

// ParseAllowlist parses allowlist content.
func ParseAllowlist(path, content string) (*Allowlist, error) {
	al := &Allowlist{File: path, Entries: map[string]int{}}
	for i, line := range strings.Split(content, "\n") {
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		line = strings.Join(strings.Fields(line), " ")
		if line == "" {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			return nil, fmt.Errorf("%s:%d: allowlist entry must be \"pkgpath funcname\", got %q", path, i+1, line)
		}
		if _, dup := al.Entries[line]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate allowlist entry %q", path, i+1, line)
		}
		al.Entries[line] = i + 1
	}
	return al, nil
}

// newPanicAudit builds the panicaudit analyzer: every panic( call in
// a non-test file of a library package (not package main) must be
// covered by the allowlist, and every allowlist entry whose package
// was analyzed must still have a panic — so introducing or removing a
// panic is always a conscious, reviewed change.
func newPanicAudit(al *Allowlist) *Analyzer {
	seen := map[string]token.Position{} // key -> first panic site
	analyzed := map[string]bool{}       // package paths covered this run
	a := &Analyzer{
		Name: "panicaudit",
		Doc:  "enforces the panic allowlist and vet: annotation syntax",
	}
	a.Run = func(p *Pass) error {
		// Malformed vet: annotations are reported here so a typo can
		// never silently disable a guardedby/lockorder check.
		for _, issue := range collectVet(p).issues {
			p.Reportf(issue.Pos, "%s", issue.Msg)
		}
		if p.Pkg.Types == nil || p.Pkg.Types.Name() == "main" {
			return nil
		}
		analyzed[p.Pkg.Path] = true
		for _, f := range p.Pkg.Files {
			if p.InTestFile(f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fname := funcKeyName(fd)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					ident, ok := unparen(call.Fun).(*ast.Ident)
					if !ok || ident.Name != "panic" {
						return true
					}
					if _, isBuiltin := p.Info.Uses[ident].(*types.Builtin); !isBuiltin {
						return true
					}
					key := p.Pkg.Path + " " + fname
					if _, ok := seen[key]; !ok {
						seen[key] = p.Fset.Position(call.Pos())
					}
					if al == nil || al.Entries[key] == 0 {
						p.Reportf(call.Pos(), "unvetted panic in %s; add %q to %s after review or return an error",
							fname, key, allowlistName(al))
					}
					return true
				})
			}
		}
		return nil
	}
	a.Finish = func(report func(pos token.Position, format string, args ...any)) error {
		if al == nil {
			return nil
		}
		var stale []string
		for key := range al.Entries {
			pkg := strings.Fields(key)[0]
			if analyzed[pkg] {
				if _, ok := seen[key]; !ok {
					stale = append(stale, key)
				}
			}
		}
		sort.Strings(stale)
		for _, key := range stale {
			report(token.Position{Filename: al.File, Line: al.Entries[key]},
				"stale allowlist entry %q: the function no longer panics; delete the line", key)
		}
		return nil
	}
	return a
}

// allowlistName names the allowlist file for messages.
func allowlistName(al *Allowlist) string {
	if al == nil {
		return "the panic allowlist"
	}
	return al.File
}

// funcKeyName renders a FuncDecl as the allowlist function name:
// MustParse, BitString.Bit, (*List).Insert.
func funcKeyName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	switch t := unparen(recv).(type) {
	case *ast.StarExpr:
		if id, ok := unparen(t.X).(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	case *ast.Ident:
		return t.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
