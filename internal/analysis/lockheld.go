package analysis

import (
	"go/ast"
	"go/types"
)

// newLockHeld builds the lockheld analyzer: inside methods of a
// lock-guarded struct, a return statement must not hand out
// references to guarded internals — returning a pointer-, slice-,
// map- or chan-typed field lets the caller touch shared state after
// the deferred Unlock has run.
//
// A struct counts as lock-guarded when it directly holds a mutex
// field or carries vet:guardedby annotations. When annotations are
// present they are the source of truth: only annotated fields are
// leak-checked, so the two tiers (this heuristic and the guardedby
// analyzer) report consistently instead of this one second-guessing
// fields the annotations deliberately left unguarded.
func newLockHeld() *Analyzer {
	a := &Analyzer{
		Name: "lockheld",
		Doc:  "flags returns that leak references to lock-guarded struct internals",
	}
	a.Run = func(p *Pass) error {
		vi := collectVet(p)
		for _, f := range p.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Recv.List) == 0 {
					continue
				}
				recvField := fd.Recv.List[0]
				if len(recvField.Names) == 0 {
					continue
				}
				recvObj := p.Info.Defs[recvField.Names[0]]
				if recvObj == nil {
					continue
				}
				recvStruct, annotated := guardedStruct(recvObj.Type(), vi)
				if recvStruct == nil {
					continue
				}
				checkLeakyReturns(p, vi, fd, recvObj, annotated)
			}
		}
		return nil
	}
	return a
}

// guardedStruct returns the struct type behind t (through one
// pointer) when it is lock-guarded — it directly holds a mutex field,
// or any of its fields carries a vet:guardedby annotation — and
// whether annotations drive it.
func guardedStruct(t types.Type, vi *vetInfo) (*types.Struct, bool) {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil, false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return nil, false
	}
	annotated := false
	hasMutex := false
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isMutexType(f.Type()) {
			hasMutex = true
		}
		if vi != nil {
			if _, ok := vi.guards[f]; ok {
				annotated = true
			}
		}
	}
	if !hasMutex && !annotated {
		return nil, false
	}
	return st, annotated
}

// checkLeakyReturns flags `return recv.field[...]` results whose type
// is a reference type. With annotations present, only vet:guardedby
// fields are checked.
func checkLeakyReturns(p *Pass, vi *vetInfo, fd *ast.FuncDecl, recvObj types.Object, annotated bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure runs under its own locking discipline
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			field, ok := receiverFieldChain(p, res, recvObj)
			if !ok {
				continue
			}
			t := p.Info.TypeOf(res)
			if t == nil || !isReferenceType(t) {
				continue
			}
			if annotated {
				fh := firstHopField(p, res, recvObj)
				if fh == nil {
					continue
				}
				if _, guarded := vi.guards[fh]; !guarded {
					continue
				}
			}
			p.Reportf(res.Pos(), "returns lock-guarded internals: field %s escapes the critical section; copy it or return a value", field)
		}
		return true
	})
}

// receiverFieldChain reports whether e is a selector chain rooted at
// the receiver object (c.d, c.a.b); it returns the printed chain.
func receiverFieldChain(p *Pass, e ast.Expr, recvObj types.Object) (string, bool) {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	for {
		switch x := unparen(sel.X).(type) {
		case *ast.Ident:
			if p.Info.Uses[x] == recvObj {
				return x.Name + "." + name, true
			}
			return "", false
		case *ast.SelectorExpr:
			name = x.Sel.Name + "." + name
			sel = x
		default:
			return "", false
		}
	}
}

// firstHopField resolves the receiver-side field of a selector chain:
// for c.a.b it returns the field a of the receiver's struct.
func firstHopField(p *Pass, e ast.Expr, recvObj types.Object) *types.Var {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	for {
		x, ok := unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			break
		}
		sel = x
	}
	if id, ok := unparen(sel.X).(*ast.Ident); !ok || p.Info.Uses[id] != recvObj {
		return nil
	}
	return fieldVarOf(p.Info, sel)
}

// isReferenceType reports whether handing out a value of t aliases
// shared state.
func isReferenceType(t types.Type) bool {
	switch types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}
