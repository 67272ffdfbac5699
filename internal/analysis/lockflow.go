// Lock-state tracking on top of the flow engine: which mutexes are
// held at each program point of one function. Used by guardedby
// (annotated-field access checks, vet:holds preconditions).
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// lockSet maps a local lock path ("j.mu") to whether it is held only
// for reading (via RLock).
type lockSet map[string]bool

func (ls lockSet) clone() lockSet { return maps.Clone(ls) }

// intersect keeps locks held on both paths. A lock read-held on
// either side stays read (the weaker fact).
func (ls lockSet) intersect(other lockSet) lockSet {
	out := lockSet{}
	for k, a := range ls {
		if b, ok := other[k]; ok {
			out[k] = a || b
		}
	}
	return out
}

// lockClient parameterizes a lock-flow walk.
type lockClient struct {
	p *Pass

	// use is called for every selector expression evaluated, with the
	// currently held locks. write is true for assignment targets.
	use func(sel *ast.SelectorExpr, write bool, held lockSet)
	// call is called for every call expression with the held set.
	call func(call *ast.CallExpr, held lockSet)

	// lits accumulates nested function literals plus the signature
	// objects visible inside them, for the caller to walk separately.
	lits []queuedLit
}

type queuedLit struct {
	lit   *ast.FuncLit
	outer map[types.Object]bool // enclosing signature objects
}

// lockFlow walks fn's body with the given entry locks.
func (lc *lockClient) lockFlow(body *ast.BlockStmt, entry lockSet, outerSig map[types.Object]bool) {
	ops := flowOps{
		clone: func(st any) any { return st.(lockSet).clone() },
		merge: func(a, b any) any { return a.(lockSet).intersect(b.(lockSet)) },
		stmt:  func(st any, s ast.Stmt) { lc.leafStmt(st.(lockSet), s, outerSig) },
		touch: func(st any, e ast.Expr) { lc.expr(st.(lockSet), e, outerSig) },
		ret: func(st any, r *ast.ReturnStmt) {
			for _, res := range r.Results {
				lc.expr(st.(lockSet), res, outerSig)
			}
		},
		end:     func(any, token.Pos) {},
		funcLit: func(lit *ast.FuncLit) {},
		isPanic: func(e ast.Expr) bool { return isPanicCall(lc.p.Info, e) },
	}
	runFlow(body, entry, ops)
}

// isPanicCall reports whether e is a call of the builtin panic.
func isPanicCall(info *types.Info, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// leafStmt applies one leaf statement to the held set.
func (lc *lockClient) leafStmt(held lockSet, s ast.Stmt, outerSig map[types.Object]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if lc.lockOp(held, s.X, false) {
			return
		}
		lc.expr(held, s.X, outerSig)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			lc.expr(held, rhs, outerSig)
		}
		for _, lhs := range s.Lhs {
			lc.writeTarget(held, lhs, outerSig)
		}
	case *ast.IncDecStmt:
		lc.writeTarget(held, s.X, outerSig)
	case *ast.DeferStmt:
		if lc.lockOp(held, s.Call, true) {
			return
		}
		lc.expr(held, s.Call, outerSig)
	case *ast.GoStmt:
		lc.expr(held, s.Call, outerSig)
	case *ast.SendStmt:
		lc.expr(held, s.Chan, outerSig)
		lc.expr(held, s.Value, outerSig)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						lc.expr(held, v, outerSig)
					}
				}
			}
		}
	case *ast.RangeStmt:
		// Offered by the engine for its iteration vars; nothing to do.
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				lc.expr(held, e, outerSig)
				return false
			}
			return true
		})
	}
}

// lockOp recognizes and applies mu.Lock/RLock/Unlock/RUnlock calls.
// In deferred position an unlock leaves the lock held until exit
// instead of releasing it. It reports whether e was a lock call.
func (lc *lockClient) lockOp(held lockSet, e ast.Expr, deferred bool) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	op := sel.Sel.Name
	if op != "Lock" && op != "RLock" && op != "Unlock" && op != "RUnlock" {
		return false
	}
	recvType := lc.p.Info.TypeOf(sel.X)
	if recvType == nil || !isMutexType(recvType) {
		return false
	}
	if (op == "RLock" || op == "RUnlock") && !isRWMutexType(recvType) {
		return false
	}
	key := exprPath(sel.X)
	if key == "" {
		return true // an unnameable mutex; recognized but untracked
	}
	switch {
	case deferred:
		// A deferred unlock pins the lock until the function exits;
		// defer mu.Lock() is bizarre and ignored.
	case op == "Lock" || op == "RLock":
		held[key] = op == "RLock"
	default:
		delete(held, key)
	}
	return true
}

// expr visits an expression for uses and calls, skipping nested
// function literals (queued for a separate walk).
func (lc *lockClient) expr(held lockSet, e ast.Expr, outerSig map[types.Object]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lc.lits = append(lc.lits, queuedLit{lit: n, outer: outerSig})
			return false
		case *ast.SelectorExpr:
			if lc.use != nil {
				lc.use(n, false, held)
			}
		case *ast.CallExpr:
			if lc.call != nil {
				lc.call(n, held)
			}
		}
		return true
	})
}

// writeTarget records a write to the outermost selector of an
// assignment target and visits the rest as reads.
func (lc *lockClient) writeTarget(held lockSet, e ast.Expr, outerSig map[types.Object]bool) {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
			continue
		case *ast.StarExpr:
			e = t.X
			continue
		case *ast.IndexExpr:
			lc.expr(held, t.Index, outerSig)
			e = t.X
			continue
		}
		break
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if lc.use != nil {
			lc.use(sel, true, held)
		}
		lc.expr(held, sel.X, outerSig)
		return
	}
	// A plain identifier target (local or package var) carries no
	// guarded-field access of its own.
}

// exprPath renders a selector chain as a dotted path ("j.cmu"), or ""
// when the expression is not a plain ident/selector chain.
func exprPath(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.StarExpr:
		return exprPath(e.X)
	}
	return ""
}

// sigObjects collects the receiver, parameter and named-result
// objects of a function declaration.
func sigObjects(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	addFieldList(info, out, fd.Recv)
	addFieldList(info, out, fd.Type.Params)
	addFieldList(info, out, fd.Type.Results)
	return out
}

// litSigObjects extends outer with the literal's own parameters and
// results, so closures capturing the enclosing receiver are still
// checked against it.
func litSigObjects(info *types.Info, lit *ast.FuncLit, outer map[types.Object]bool) map[types.Object]bool {
	out := map[types.Object]bool{}
	for k := range outer {
		out[k] = true
	}
	addFieldList(info, out, lit.Type.Params)
	addFieldList(info, out, lit.Type.Results)
	return out
}

func addFieldList(info *types.Info, out map[types.Object]bool, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		for _, id := range f.Names {
			if obj := info.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
	}
}

// entryLocks builds the entry lock set a vet:holds annotation
// declares.
func entryLocks(vi *vetInfo, fn *types.Func) lockSet {
	held := lockSet{}
	for _, spec := range vi.holds[fn] {
		held[spec.Root+"."+spec.Path] = false
	}
	return held
}
