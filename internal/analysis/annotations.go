// Annotation collection for the concurrency tier.
//
// The annotation language is two structured comment lines:
//
//	// vet:guardedby mu     on a struct field: the field may only be
//	//                      accessed while the sibling mutex mu is held
//	// vet:holds j.cmu      on a func: the named lock is held on entry,
//	//                      and call sites must hold it
//
// collectVet parses these once per package, resolves the names they
// mention against the type information, and records syntax problems
// (unknown verbs, dangling mutex names, misplaced comments) for
// guardedby to report as diagnostics.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// vetIssue is one malformed or misplaced annotation.
type vetIssue struct {
	Pos token.Pos
	Msg string
}

// holdsSpec is one vet:holds precondition: a lock path such as
// "j.cmu", split into its root name (receiver or parameter) and the
// field chain below it.
type holdsSpec struct {
	Root string // "j"
	Path string // "cmu"
}

// vetInfo is the collected annotation set of one package.
type vetInfo struct {
	// guards maps an annotated field to the sibling mutex field that
	// guards it.
	guards map[*types.Var]*types.Var
	// holds maps a function to its declared lock preconditions.
	holds map[*types.Func][]holdsSpec
	// issues are syntax problems, reported by guardedby.
	issues []vetIssue
}

// vetAnnotation is one parsed "vet:<verb> args..." line.
type vetAnnotation struct {
	Verb string
	Args []string
	Pos  token.Pos
}

// vetCache memoizes collectVet per package for the run. Suite runs
// are single-threaded, so a plain map keyed by package is enough.
var vetCache = map[*Package]*vetInfo{}

// collectVet returns the package's annotation set, computing it on
// first use.
func collectVet(p *Pass) *vetInfo {
	if vi, ok := vetCache[p.Pkg]; ok {
		return vi
	}
	vi := &vetInfo{
		guards: map[*types.Var]*types.Var{},
		holds:  map[*types.Func][]holdsSpec{},
	}
	c := &vetCollector{p: p, vi: vi, consumed: map[*ast.Comment]bool{}}
	for _, f := range p.Pkg.Files {
		c.file(f)
	}
	vetCache[p.Pkg] = vi
	return vi
}

type vetCollector struct {
	p        *Pass
	vi       *vetInfo
	consumed map[*ast.Comment]bool // comments attached to a valid site
}

func (c *vetCollector) issuef(pos token.Pos, format string, args ...any) {
	c.vi.issues = append(c.vi.issues, vetIssue{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// parseGroup extracts vet: annotations from a comment group, marking
// each carrying comment as consumed (attached to a legal site).
func (c *vetCollector) parseGroup(g *ast.CommentGroup) []vetAnnotation {
	if g == nil {
		return nil
	}
	var out []vetAnnotation
	for _, cm := range g.List {
		for _, ann := range parseVetComment(cm) {
			out = append(out, ann)
			c.consumed[cm] = true
		}
	}
	return out
}

// parseVetComment parses the vet: lines of a single comment. Both
// line comments and the lines of a block comment are scanned; an
// annotation must start its line (after comment markers and space).
func parseVetComment(cm *ast.Comment) []vetAnnotation {
	text := cm.Text
	switch {
	case strings.HasPrefix(text, "//"):
		text = text[2:]
	case strings.HasPrefix(text, "/*"):
		text = strings.TrimSuffix(text[2:], "*/")
	}
	var out []vetAnnotation
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "*"))
		if !strings.HasPrefix(line, "vet:") {
			continue
		}
		// An embedded "//" ends the annotation: the rest is prose
		// (fixtures hang their // want expectations there).
		if i := strings.Index(line, "//"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		fields := strings.Fields(line)
		verb := strings.TrimPrefix(fields[0], "vet:")
		out = append(out, vetAnnotation{Verb: verb, Args: fields[1:], Pos: cm.Pos()})
	}
	return out
}

func (c *vetCollector) file(f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			c.funcDecl(d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					c.structType(st)
				}
			}
		}
	}
	// Any vet: comment not consumed above sits somewhere the language
	// gives it no meaning — report it rather than silently ignore it.
	for _, g := range f.Comments {
		for _, cm := range g.List {
			if c.consumed[cm] {
				continue
			}
			for _, ann := range parseVetComment(cm) {
				c.issuef(ann.Pos, "misplaced vet:%s annotation: only struct fields and function declarations take vet: comments", ann.Verb)
			}
		}
	}
}

// structType records the guardedby annotations of one struct.
func (c *vetCollector) structType(st *ast.StructType) {
	for _, field := range st.Fields.List {
		anns := append(c.parseGroup(field.Doc), c.parseGroup(field.Comment)...)
		for _, ann := range anns {
			switch ann.Verb {
			case "guardedby":
				c.guardedBy(st, field, ann)
			case "holds":
				c.issuef(ann.Pos, "vet:%s applies to function declarations, not struct fields", ann.Verb)
			default:
				c.issuef(ann.Pos, "unknown vet: verb %q", ann.Verb)
			}
		}
	}
}

// guardedBy resolves one vet:guardedby annotation against the
// enclosing struct's fields.
func (c *vetCollector) guardedBy(st *ast.StructType, field *ast.Field, ann vetAnnotation) {
	if len(ann.Args) != 1 {
		c.issuef(ann.Pos, "vet:guardedby takes exactly one sibling mutex name")
		return
	}
	name := ann.Args[0]
	var mu *types.Var
	for _, sib := range st.Fields.List {
		for _, id := range sib.Names {
			if id.Name == name {
				mu, _ = c.p.Info.Defs[id].(*types.Var)
			}
		}
	}
	if mu == nil {
		c.issuef(ann.Pos, "vet:guardedby names unknown sibling field %q", name)
		return
	}
	if !isMutexType(mu.Type()) {
		c.issuef(ann.Pos, "vet:guardedby %s: field %s is not a sync.Mutex or sync.RWMutex", name, name)
		return
	}
	for _, obj := range c.fieldVars(field) {
		if obj == mu {
			c.issuef(ann.Pos, "vet:guardedby %s: a mutex cannot guard itself", name)
			continue
		}
		c.vi.guards[obj] = mu
	}
}

// fieldVars returns the *types.Var objects a field declaration
// defines (one per name; embedded fields have none here).
func (c *vetCollector) fieldVars(field *ast.Field) []*types.Var {
	var out []*types.Var
	for _, id := range field.Names {
		if v, ok := c.p.Info.Defs[id].(*types.Var); ok {
			out = append(out, v)
		}
	}
	return out
}

// funcDecl records the holds annotations of one function.
func (c *vetCollector) funcDecl(fd *ast.FuncDecl) {
	anns := c.parseGroup(fd.Doc)
	if len(anns) == 0 {
		return
	}
	fn, _ := c.p.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	for _, ann := range anns {
		switch ann.Verb {
		case "holds":
			if len(ann.Args) == 0 {
				c.issuef(ann.Pos, "vet:holds needs at least one lock path (e.g. vet:holds j.mu)")
				continue
			}
			for _, raw := range ann.Args {
				spec, ok := c.resolveHolds(fd, raw, ann.Pos)
				if ok {
					c.vi.holds[fn] = append(c.vi.holds[fn], spec)
				}
			}
		case "guardedby":
			c.issuef(ann.Pos, "vet:guardedby applies to struct fields, not function declarations")
		default:
			c.issuef(ann.Pos, "unknown vet: verb %q", ann.Verb)
		}
	}
}

// resolveHolds validates one vet:holds path against the function's
// receiver and parameters: the root must name one of them, and the
// field chain below it must end in a mutex.
func (c *vetCollector) resolveHolds(fd *ast.FuncDecl, raw string, pos token.Pos) (holdsSpec, bool) {
	root, rest, ok := strings.Cut(raw, ".")
	if !ok || root == "" || rest == "" {
		c.issuef(pos, "vet:holds path %q must name a lock through the receiver or a parameter (e.g. j.mu)", raw)
		return holdsSpec{}, false
	}
	var rootVar *types.Var
	consider := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, id := range f.Names {
				if id.Name == root {
					rootVar, _ = c.p.Info.Defs[id].(*types.Var)
				}
			}
		}
	}
	consider(fd.Recv)
	consider(fd.Type.Params)
	if rootVar == nil {
		c.issuef(pos, "vet:holds path %q: %q is not the receiver or a parameter of %s", raw, root, fd.Name.Name)
		return holdsSpec{}, false
	}
	t := rootVar.Type()
	for _, name := range strings.Split(rest, ".") {
		f := lookupField(t, name)
		if f == nil {
			c.issuef(pos, "vet:holds path %q: no field %q on %s", raw, name, types.TypeString(t, types.RelativeTo(c.p.Pkg.Types)))
			return holdsSpec{}, false
		}
		t = f.Type()
	}
	if !isMutexType(t) {
		c.issuef(pos, "vet:holds path %q does not end in a sync.Mutex or sync.RWMutex", raw)
		return holdsSpec{}, false
	}
	return holdsSpec{Root: root, Path: rest}, true
}

// lookupField finds a struct field by name on t (through pointers and
// named types), or nil.
func lookupField(t types.Type, name string) *types.Var {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		t = n.Underlying()
	}
	st, ok := t.(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == name {
			return f
		}
	}
	return nil
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}

// isRWMutexType reports whether t is sync.RWMutex.
func isRWMutexType(t types.Type) bool {
	n := namedType(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "RWMutex"
}
