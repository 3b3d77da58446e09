package analyzers

import (
	"go/ast"
	"sort"
	"strings"

	"stethoscope/internal/analyzers/lintkit"
)

// LockSend enforces the streaming contract of the engine's workers and
// the server's sessions: never perform a blocking channel send, and
// never write to a network connection, while holding a
// sync.Mutex/RWMutex. A send that blocks under a lock deadlocks the
// moment the consumer needs that lock (the scheduler-mutex incident
// class); a socket write under a lock turns one slow client into a
// server-wide stall. Non-blocking sends
// (select with default) pass — that is the sanctioned kick pattern.
//
// The check is intra-procedural and name-based: a held region opens at
// x.Lock()/x.RLock() and closes at the matching Unlock (a deferred
// Unlock holds to function end); network writes are recognized as
// Write/WriteTo/WriteString calls on a receiver whose name contains
// "conn".
var LockSend = &lintkit.Analyzer{
	Name: "locksend",
	Doc:  "no blocking channel send or net.Conn write while a mutex is held",
	Run:  runLockSend,
}

func runLockSend(pass *lintkit.Pass) error {
	for _, fd := range funcDecls(pass.Pkg) {
		lw := &lockWalker{pass: pass}
		lw.block(fd.Body.List, map[string]bool{})
	}
	return nil
}

type lockWalker struct {
	pass *lintkit.Pass
}

// block walks one statement list in order, threading the held-lock set
// through it. Nested blocks get a copy: a lock released inside a branch
// is conservatively still considered held after it.
func (lw *lockWalker) block(stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		lw.stmt(s, held)
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func heldNames(held map[string]bool) string {
	var names []string
	for k := range held {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// lockCall classifies x.Lock()/x.Unlock() style calls, returning the
// receiver and +1 (acquire) / -1 (release) / 0 (neither).
func lockCall(call *ast.CallExpr) (recv string, dir int) {
	recv, name := calleeName(call)
	if recv == "" || len(call.Args) != 0 {
		return "", 0
	}
	switch name {
	case "Lock", "RLock":
		return recv, 1
	case "Unlock", "RUnlock":
		return recv, -1
	}
	return "", 0
}

func (lw *lockWalker) stmt(s ast.Stmt, held map[string]bool) {
	switch t := s.(type) {
	case nil:
	case *ast.ExprStmt:
		if call, ok := t.X.(*ast.CallExpr); ok {
			if recv, dir := lockCall(call); dir != 0 {
				if dir > 0 {
					held[recv] = true
				} else {
					delete(held, recv)
				}
				return
			}
		}
		lw.expr(t.X, held)
	case *ast.DeferStmt:
		// defer x.Unlock() keeps the lock held for the rest of the
		// function body — exactly the region the check must cover.
		if _, dir := lockCall(t.Call); dir != 0 {
			return
		}
		lw.expr(t.Call, held)
	case *ast.SendStmt:
		if len(held) > 0 {
			lw.pass.Reportf(t.Pos(), "channel send while %s is held; release the lock first or use a select with default", heldNames(held))
		}
		lw.expr(t.Value, held)
	case *ast.SelectStmt:
		lw.selectStmt(t, held)
	case *ast.BlockStmt:
		lw.block(t.List, copyHeld(held))
	case *ast.IfStmt:
		lw.stmt(t.Init, held)
		lw.expr(t.Cond, held)
		lw.block(t.Body.List, copyHeld(held))
		lw.stmt(t.Else, held)
	case *ast.ForStmt:
		lw.stmt(t.Init, held)
		lw.expr(t.Cond, held)
		inner := copyHeld(held)
		lw.block(t.Body.List, inner)
		lw.stmt(t.Post, inner)
	case *ast.RangeStmt:
		lw.expr(t.X, held)
		lw.block(t.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		lw.stmt(t.Init, held)
		lw.expr(t.Tag, held)
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lw.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		lw.stmt(t.Init, held)
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lw.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.AssignStmt:
		for _, e := range t.Rhs {
			lw.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range t.Results {
			lw.expr(e, held)
		}
	case *ast.GoStmt:
		// The spawned goroutine runs with its own stack; locks held here
		// are not held there.
		lw.expr(t.Call.Fun, map[string]bool{})
	case *ast.LabeledStmt:
		lw.stmt(t.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := t.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						lw.expr(e, held)
					}
				}
			}
		}
	}
}

// selectStmt: a default case makes every send in the select
// non-blocking; without one, sends under a held lock are flagged.
func (lw *lockWalker) selectStmt(s *ast.SelectStmt, held map[string]bool) {
	hasDefault := false
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if send, ok := cc.Comm.(*ast.SendStmt); ok && !hasDefault && len(held) > 0 {
			lw.pass.Reportf(send.Pos(), "blocking select send while %s is held; add a default case or release the lock", heldNames(held))
		}
		lw.block(cc.Body, copyHeld(held))
	}
}

// expr flags network writes under a held lock and walks closures with a
// fresh lock set.
func (lw *lockWalker) expr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			inner := &lockWalker{pass: lw.pass}
			inner.block(t.Body.List, map[string]bool{})
			return false
		case *ast.CallExpr:
			if len(held) == 0 {
				return true
			}
			recv, name := calleeName(t)
			if recv == "" {
				return true
			}
			switch name {
			case "Write", "WriteTo", "WriteString":
				last := recv
				if i := strings.LastIndexByte(recv, '.'); i >= 0 {
					last = recv[i+1:]
				}
				if strings.Contains(strings.ToLower(last), "conn") {
					lw.pass.Reportf(t.Pos(), "network write on %s while %s is held; move the write outside the critical section", recv, heldNames(held))
				}
			}
		}
		return true
	})
}
