// A small intraprocedural control-flow engine for the flow-sensitive
// analyzer, guardedby. It walks one function body statement by
// statement, threading an opaque state value through straight-line
// code, forking it at branches and merging the surviving branches at
// join points.
//
// The engine handles only control structure; everything a client
// cares about (lock calls, field accesses, error tracking) happens in
// the flowOps callbacks. The analysis is deliberately conservative:
// branch joins call merge (clients intersect "facts that are
// certainly true"), loops are not iterated to a fixpoint (a loop body
// runs over a copy of the entry state, which is sound for
// must-hold-style facts), and a `for {}` with no break is treated as
// terminating the statement list.
package analysis

import (
	"go/ast"
	"go/token"
)

// flowOps is the client vtable for one function walk. All callbacks
// are required except funcLit and isPanic.
type flowOps struct {
	// clone deep-copies a state for a branch fork.
	clone func(st any) any
	// merge combines two fall-through states at a join point.
	merge func(a, b any) any
	// stmt handles a leaf statement (assignments, expression
	// statements, defers, sends, declarations), mutating st in place.
	stmt func(st any, s ast.Stmt)
	// touch marks an expression as evaluated (conditions, range
	// operands, switch tags) so clients can record reads.
	touch func(st any, e ast.Expr)
	// ret handles an explicit return (before the state dies).
	ret func(st any, r *ast.ReturnStmt)
	// end handles falling off the end of the body.
	end func(st any, pos token.Pos)
	// funcLit is offered every nested function literal once; the
	// engine never walks into literals.
	funcLit func(lit *ast.FuncLit)
	// isPanic, if set, recognizes a statement-level panic call so the
	// engine can treat it as a terminator.
	isPanic func(e ast.Expr) bool
}

// flowEngine runs one body under one flowOps.
type flowEngine struct {
	ops    flowOps
	breaks []bool // per open loop: has a break been seen?
}

// runFlow walks body with the given entry state.
func runFlow(body *ast.BlockStmt, entry any, ops flowOps) {
	fe := &flowEngine{ops: ops}
	st, terminated := fe.stmts(body.List, entry)
	if !terminated {
		fe.ops.end(st, body.Rbrace)
	}
}

// stmts walks a statement list. It returns the fall-through state and
// whether the list terminated (return, panic-free termination such as
// break/continue, or an endless loop).
func (fe *flowEngine) stmts(list []ast.Stmt, st any) (any, bool) {
	for _, s := range list {
		var terminated bool
		st, terminated = fe.stmt(s, st)
		if terminated {
			return nil, true
		}
	}
	return st, false
}

func (fe *flowEngine) stmt(s ast.Stmt, st any) (any, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return fe.stmts(s.List, st)
	case *ast.LabeledStmt:
		return fe.stmt(s.Stmt, st)
	case *ast.ReturnStmt:
		fe.ops.ret(st, s)
		return nil, true
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			fe.sawBreak(s.Label != nil)
			return nil, true
		case token.CONTINUE, token.GOTO:
			return nil, true
		}
		return st, false // fallthrough: imprecise, treated as a no-op
	case *ast.IfStmt:
		return fe.ifStmt(s, st)
	case *ast.ForStmt:
		return fe.forStmt(s, st)
	case *ast.RangeStmt:
		return fe.rangeStmt(s, st)
	case *ast.SwitchStmt:
		if s.Init != nil {
			fe.ops.stmt(st, s.Init)
		}
		if s.Tag != nil {
			fe.ops.touch(st, s.Tag)
		}
		return fe.caseBodies(s.Body, st, hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			fe.ops.stmt(st, s.Init)
		}
		fe.ops.stmt(st, s.Assign)
		return fe.caseBodies(s.Body, st, hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		// A select with no default blocks until one case runs, so the
		// pre-select state is not itself a fall-through path.
		return fe.caseBodies(s.Body, st, true)
	case *ast.EmptyStmt:
		return st, false
	case *ast.ExprStmt:
		fe.ops.stmt(st, s)
		if fe.ops.isPanic != nil && fe.ops.isPanic(s.X) {
			return nil, true
		}
		return st, false
	default:
		fe.ops.stmt(st, s)
		return st, false
	}
}

func (fe *flowEngine) ifStmt(s *ast.IfStmt, st any) (any, bool) {
	if s.Init != nil {
		fe.ops.stmt(st, s.Init)
	}
	fe.ops.touch(st, s.Cond)
	thenSt, elseSt := fe.ops.clone(st), fe.ops.clone(st)
	thenOut, thenTerm := fe.stmts(s.Body.List, thenSt)
	elseOut, elseTerm := elseSt, false
	if s.Else != nil {
		elseOut, elseTerm = fe.stmt(s.Else, elseSt)
	}
	switch {
	case thenTerm && elseTerm:
		return nil, true
	case thenTerm:
		return elseOut, false
	case elseTerm:
		return thenOut, false
	default:
		return fe.ops.merge(thenOut, elseOut), false
	}
}

func (fe *flowEngine) forStmt(s *ast.ForStmt, st any) (any, bool) {
	if s.Init != nil {
		fe.ops.stmt(st, s.Init)
	}
	if s.Cond != nil {
		fe.ops.touch(st, s.Cond)
	}
	fe.breaks = append(fe.breaks, false)
	bodyOut, bodyTerm := fe.stmts(s.Body.List, fe.ops.clone(st))
	if !bodyTerm && s.Post != nil {
		fe.ops.stmt(bodyOut, s.Post)
	}
	sawBreak := fe.breaks[len(fe.breaks)-1]
	fe.breaks = fe.breaks[:len(fe.breaks)-1]
	if s.Cond == nil && !sawBreak {
		return nil, true // for {} without break never falls through
	}
	if bodyTerm {
		return st, false
	}
	return fe.ops.merge(st, bodyOut), false
}

func (fe *flowEngine) rangeStmt(s *ast.RangeStmt, st any) (any, bool) {
	fe.ops.touch(st, s.X)
	if s.Key != nil || s.Value != nil {
		fe.ops.stmt(st, s) // let the client see the iteration vars
	}
	fe.breaks = append(fe.breaks, false)
	bodyOut, bodyTerm := fe.stmts(s.Body.List, fe.ops.clone(st))
	fe.breaks = fe.breaks[:len(fe.breaks)-1]
	if bodyTerm {
		return st, false
	}
	return fe.ops.merge(st, bodyOut), false
}

// caseBodies walks the case clauses of a switch or select.
// exhaustive means one clause always runs (select, or switch with a
// default), so the pre-switch state is not a fall-through path.
func (fe *flowEngine) caseBodies(body *ast.BlockStmt, st any, exhaustive bool) (any, bool) {
	var out any
	haveOut := false
	ranClause := false
	for _, cs := range body.List {
		var clauseBody []ast.Stmt
		switch cs := cs.(type) {
		case *ast.CaseClause:
			for _, e := range cs.List {
				fe.ops.touch(st, e)
			}
			clauseBody = cs.Body
		case *ast.CommClause:
			branch := fe.ops.clone(st)
			if cs.Comm != nil {
				fe.ops.stmt(branch, cs.Comm)
			}
			ranClause = true
			if cOut, cTerm := fe.stmts(cs.Body, branch); !cTerm {
				if haveOut {
					out = fe.ops.merge(out, cOut)
				} else {
					out, haveOut = cOut, true
				}
			}
			continue
		default:
			continue
		}
		ranClause = true
		if cOut, cTerm := fe.stmts(clauseBody, fe.ops.clone(st)); !cTerm {
			if haveOut {
				out = fe.ops.merge(out, cOut)
			} else {
				out, haveOut = cOut, true
			}
		}
	}
	if !exhaustive || !ranClause {
		if haveOut {
			out = fe.ops.merge(out, fe.ops.clone(st))
		} else {
			out, haveOut = fe.ops.clone(st), true
		}
	}
	if !haveOut {
		return nil, true // every clause terminated and one must run
	}
	return out, false
}

// sawBreak records a break against the innermost loop (or every open
// loop, for a labeled break — conservative but simple).
func (fe *flowEngine) sawBreak(labeled bool) {
	if len(fe.breaks) == 0 {
		return // break inside a switch/select with no enclosing loop
	}
	if labeled {
		for i := range fe.breaks {
			fe.breaks[i] = true
		}
		return
	}
	fe.breaks[len(fe.breaks)-1] = true
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, cs := range body.List {
		if cc, ok := cs.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}
