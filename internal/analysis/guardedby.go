package analysis

import (
	"go/ast"
	"go/types"
)

// newGuardedBy enforces vet:guardedby and vet:holds: a field
// annotated `// vet:guardedby mu` may only be read or written while
// the sibling mutex mu is held (a write needs the write lock, not
// just RLock), and a call to a function annotated `// vet:holds x.mu`
// must be made with that lock held. Lock state is tracked
// intraprocedurally through Lock/RLock/Unlock/RUnlock calls and
// deferred unlocks; accesses rooted at function-local objects (fresh
// values under construction) are exempt, since no other goroutine can
// reach them yet. It also reports every malformed or misplaced vet:
// comment, so a typo can never silently disable a check.
func newGuardedBy() *Analyzer {
	a := &Analyzer{
		Name: "guardedby",
		Doc:  "vet:guardedby fields must be accessed with the named mutex held",
	}
	a.Run = func(p *Pass) error {
		vi := collectVet(p)
		for _, issue := range vi.issues {
			p.Reportf(issue.Pos, "%s", issue.Msg)
		}
		gb := &guardedByPass{p: p, vi: vi}
		for _, f := range p.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				entry := lockSet{}
				if fn != nil {
					entry = entryLocks(vi, fn)
				}
				gb.walk(fd.Body, entry, sigObjects(p.Info, fd))
			}
		}
		return nil
	}
	return a
}

type guardedByPass struct {
	p  *Pass
	vi *vetInfo
}

// walk runs the lock-flow over one body and then over every nested
// function literal it contains. Literals are analyzed with an empty
// entry set — the lock state at their eventual call site is unknown —
// but with the enclosing signature objects still visible, so a
// closure capturing the receiver is held to the same rules.
func (gb *guardedByPass) walk(body *ast.BlockStmt, entry lockSet, sig map[types.Object]bool) {
	lc := &lockClient{p: gb.p}
	lc.use = func(sel *ast.SelectorExpr, write bool, held lockSet) {
		gb.checkUse(sel, write, held, sig)
	}
	lc.call = func(call *ast.CallExpr, held lockSet) {
		gb.checkCall(call, held)
	}
	lc.lockFlow(body, entry, sig)
	for len(lc.lits) > 0 {
		q := lc.lits[0]
		lc.lits = lc.lits[1:]
		inner := &guardedByPass{p: gb.p, vi: gb.vi}
		inner.walk(q.lit.Body, lockSet{}, litSigObjects(gb.p.Info, q.lit, q.outer))
	}
}

// checkUse flags an access to a guarded field made without its mutex.
func (gb *guardedByPass) checkUse(sel *ast.SelectorExpr, write bool, held lockSet, sig map[types.Object]bool) {
	fv := fieldVarOf(gb.p.Info, sel)
	if fv == nil {
		return
	}
	mu, guarded := gb.vi.guards[fv]
	if !guarded {
		return
	}
	root := rootObj(gb.p.Info, sel)
	if root == nil || (!sig[root] && !isPackageLevel(root)) {
		return // rooted at a local: not yet shared
	}
	base := exprPath(sel.X)
	if base == "" {
		return
	}
	key := base + "." + mu.Name()
	readOnly, ok := held[key]
	access := base + "." + fv.Name()
	switch {
	case !ok:
		gb.p.Reportf(sel.Sel.Pos(), "%s is guarded by %s but accessed without holding it", access, key)
	case write && readOnly:
		gb.p.Reportf(sel.Sel.Pos(), "%s is guarded by %s but written while holding only the read lock", access, key)
	}
}

// checkCall enforces vet:holds preconditions at call sites.
func (gb *guardedByPass) checkCall(call *ast.CallExpr, held lockSet) {
	fn := calleeFunc(gb.p.Info, call)
	if fn == nil {
		return
	}
	specs := gb.vi.holds[fn]
	if len(specs) == 0 {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return
	}
	for _, spec := range specs {
		actual := ""
		if r := sig.Recv(); r != nil && r.Name() == spec.Root {
			if fsel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				actual = exprPath(fsel.X)
			}
		} else {
			for i := 0; i < sig.Params().Len(); i++ {
				if sig.Params().At(i).Name() == spec.Root && i < len(call.Args) {
					actual = exprPath(call.Args[i])
				}
			}
		}
		if actual == "" {
			continue // the argument is not a nameable path; give up
		}
		key := actual + "." + spec.Path
		if _, ok := held[key]; !ok {
			gb.p.Reportf(call.Pos(), "call to %s requires holding %s (vet:holds)", fn.Name(), key)
		}
	}
}

// fieldVarOf resolves a selector to the struct field it selects, or
// nil for methods, qualified identifiers and unresolved selectors.
func fieldVarOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// rootObj returns the object of the identifier at the root of a
// selector chain, or nil.
func rootObj(info *types.Info, sel *ast.SelectorExpr) types.Object {
	e := ast.Expr(sel)
	for {
		switch t := unparen(e).(type) {
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.Ident:
			return info.Uses[t]
		default:
			return nil
		}
	}
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
