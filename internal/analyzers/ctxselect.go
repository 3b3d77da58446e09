package analyzers

import (
	"go/ast"
	"go/token"
	"strings"

	"stethoscope/internal/analyzers/lintkit"
)

// CtxSelect enforces the worker-loop cancellation contract in the
// execution and serving packages (internal/engine, internal/keyed,
// internal/runner, internal/server, and the facade): inside a loop of a function that takes a
// context.Context, a blocking channel operation must sit in a select
// that also watches ctx.Done() (or a local cancellation channel — done,
// stop, closed, quit), so a canceled run can never leave a worker
// parked on a channel. Non-blocking selects (with default) pass.
var CtxSelect = &lintkit.Analyzer{
	Name: "ctxselect",
	Doc:  "blocking channel ops in engine/server worker loops must select on ctx.Done()",
	Run:  runCtxSelect,
}

// ctxselectPackages are the final import-path segments the contract
// covers: the dataflow scheduler's worker loops, the keyed-reuse
// substrate (home of Flight.Do, the shared-work gate's only ctx-aware
// wait), the run service's run body, the TCP server's session loops,
// and the facade's streaming producers.
var ctxselectPackages = []string{"engine", "keyed", "runner", "server", "stethoscope"}

// cancelNames are channel names accepted as cancellation signals in a
// select, alongside ctx.Done() calls.
var cancelNames = map[string]bool{"done": true, "stop": true, "closed": true, "quit": true}

func runCtxSelect(pass *lintkit.Pass) error {
	if !pkgMatches(pass.Pkg, ctxselectPackages...) {
		return nil
	}
	for _, fd := range funcDecls(pass.Pkg) {
		w := &ctxWalker{pass: pass, ctxInScope: hasCtxParam(fd.Type)}
		w.stmt(fd.Body, 0)
	}
	return nil
}

// hasCtxParam reports whether the signature takes a context.Context.
func hasCtxParam(ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, f := range ft.Params.List {
		if exprString(f.Type) == "context.Context" {
			return true
		}
	}
	return false
}

// ctxWalker tracks loop depth and context visibility down the lexical
// tree. FuncLits inherit the enclosing scope (the engine's workers are
// closures over the run context) but reset loop depth — their bodies
// run once per call.
type ctxWalker struct {
	pass       *lintkit.Pass
	ctxInScope bool
}

func (w *ctxWalker) stmt(s ast.Stmt, loop int) {
	switch t := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range t.List {
			w.stmt(st, loop)
		}
	case *ast.ForStmt:
		w.stmt(t.Init, loop)
		w.expr(t.Cond, loop+1)
		w.stmt(t.Post, loop+1)
		w.stmt(t.Body, loop+1)
	case *ast.RangeStmt:
		w.expr(t.X, loop)
		w.stmt(t.Body, loop+1)
	case *ast.SelectStmt:
		w.selectStmt(t, loop)
	case *ast.IfStmt:
		w.stmt(t.Init, loop)
		w.expr(t.Cond, loop)
		w.stmt(t.Body, loop)
		w.stmt(t.Else, loop)
	case *ast.SwitchStmt:
		w.stmt(t.Init, loop)
		w.expr(t.Tag, loop)
		w.stmt(t.Body, loop)
	case *ast.TypeSwitchStmt:
		w.stmt(t.Init, loop)
		w.stmt(t.Assign, loop)
		w.stmt(t.Body, loop)
	case *ast.CaseClause:
		for _, e := range t.List {
			w.expr(e, loop)
		}
		for _, st := range t.Body {
			w.stmt(st, loop)
		}
	case *ast.CommClause:
		// Reached only via a select the walker already vetted (or
		// rejected); the comm op itself is not re-flagged.
		for _, st := range t.Body {
			w.stmt(st, loop)
		}
	case *ast.SendStmt:
		if loop > 0 && w.ctxInScope {
			w.pass.Reportf(t.Pos(), "blocking channel send in a worker loop outside a select with ctx.Done(); wrap it in a select that also watches cancellation")
		}
		w.expr(t.Value, loop)
	case *ast.ExprStmt:
		w.expr(t.X, loop)
	case *ast.AssignStmt:
		for _, e := range t.Rhs {
			w.expr(e, loop)
		}
	case *ast.DeclStmt:
		if gd, ok := t.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e, loop)
					}
				}
			}
		}
	case *ast.GoStmt:
		w.expr(t.Call, loop)
	case *ast.DeferStmt:
		w.expr(t.Call, loop)
	case *ast.ReturnStmt:
		for _, e := range t.Results {
			w.expr(e, loop)
		}
	case *ast.LabeledStmt:
		w.stmt(t.Stmt, loop)
	}
}

// expr flags blocking receives (<-ch) and descends into closures.
func (w *ctxWalker) expr(e ast.Expr, loop int) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			inner := &ctxWalker{pass: w.pass, ctxInScope: w.ctxInScope || hasCtxParam(t.Type)}
			inner.stmt(t.Body, 0)
			return false
		case *ast.SelectStmt:
			w.selectStmt(t, loop)
			return false
		case *ast.UnaryExpr:
			if t.Op == token.ARROW && loop > 0 && w.ctxInScope {
				w.pass.Reportf(t.Pos(), "blocking channel receive in a worker loop outside a select with ctx.Done(); wrap it in a select that also watches cancellation")
			}
		}
		return true
	})
}

// selectStmt vets one select: fine when non-blocking (default case) or
// when some case receives a cancellation signal.
func (w *ctxWalker) selectStmt(s *ast.SelectStmt, loop int) {
	ok := loop == 0 || !w.ctxInScope
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil { // default:
			ok = true
			continue
		}
		if recvsCancellation(cc.Comm) {
			ok = true
		}
	}
	if !ok {
		w.pass.Reportf(s.Pos(), "select in a worker loop has no ctx.Done() or cancellation-channel case and no default")
	}
	for _, c := range s.Body.List {
		w.stmt(c, loop)
	}
}

// recvsCancellation reports whether the comm statement receives from
// ctx.Done() or a channel named like a cancellation signal.
func recvsCancellation(s ast.Stmt) bool {
	var recv ast.Expr
	switch t := s.(type) {
	case *ast.ExprStmt:
		recv = t.X
	case *ast.AssignStmt:
		if len(t.Rhs) == 1 {
			recv = t.Rhs[0]
		}
	}
	ue, ok := recv.(*ast.UnaryExpr)
	if !ok || ue.Op != token.ARROW {
		return false
	}
	switch x := ue.X.(type) {
	case *ast.CallExpr:
		_, name := calleeName(x)
		return name == "Done"
	case *ast.Ident:
		return cancelNames[strings.ToLower(x.Name)]
	case *ast.SelectorExpr:
		return cancelNames[strings.ToLower(x.Sel.Name)]
	}
	return false
}
