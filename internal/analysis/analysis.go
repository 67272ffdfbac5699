package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at a file:line:col.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional vet format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Loader   *Loader
	Pkg      *Package
	Fset     *token.FileSet
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool { return p.Loader.IsTestFile(pos) }

// Analyzer is one check; Run is called once per package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Pass) error
}

// Suite is a configured set of analyzers.
type Suite struct {
	Analyzers []*Analyzer
}

// SuiteConfig parameterizes NewSuite.
type SuiteConfig struct {
	// Names restricts the suite to the named analyzers; empty means
	// all of them.
	Names []string
}

// NewSuite builds the full labelvet analyzer suite.
func NewSuite(cfg SuiteConfig) (*Suite, error) {
	all := []*Analyzer{
		newLabelCmp(),
		newErrCheck(),
		newGuardedBy(),
	}
	if len(cfg.Names) == 0 {
		return &Suite{Analyzers: all}, nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var sel []*Analyzer
	for _, n := range cfg.Names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		sel = append(sel, a)
	}
	return &Suite{Analyzers: sel}, nil
}

// Run applies every analyzer to every package and returns the
// combined diagnostics sorted by position.
func (s *Suite) Run(ld *Loader, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range s.Analyzers {
			pass := &Pass{
				Analyzer: a,
				Loader:   ld,
				Pkg:      pkg,
				Fset:     ld.Fset,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// --- shared helpers used by several analyzers ---

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves the static callee of a call, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// funcFullName renders a *types.Func as "pkgpath.Name" for package
// functions and "pkgpath.Recv.Name" for methods (pointer receivers
// render as the element type, so both spell the same).
func funcFullName(f *types.Func) string {
	if f == nil {
		return ""
	}
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if n := namedType(sig.Recv().Type()); n != nil {
			if n.Obj().Pkg() == nil {
				return n.Obj().Name() + "." + f.Name()
			}
			return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
		}
		return f.Name()
	}
	if f.Pkg() == nil {
		return f.Name()
	}
	return f.Pkg().Path() + "." + f.Name()
}

// namedType returns the *types.Named behind t (through pointers and
// aliases), or nil.
func namedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// typeQualifiedName renders a named type as "pkgname.Type" for
// messages.
func typeQualifiedName(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// inModule reports whether the package defining obj belongs to the
// module under analysis (its path starts with modPath).
func inModule(pkg *types.Package, modPath string) bool {
	if pkg == nil {
		return false
	}
	return pkg.Path() == modPath || strings.HasPrefix(pkg.Path(), modPath+"/")
}
