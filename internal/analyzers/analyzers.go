// Package analyzers is stethovet's check suite: six lintkit analyzers
// that enforce the engine's own cross-cutting invariants at lint time —
// contracts the packages document in prose and reviews used to re-check
// by hand:
//
//   - kernelcoverage: every mal opcode internal/compiler and
//     internal/optimizer emit has a kernel registered by the engine's
//     registerKernels, and every registered kernel is reachable — the
//     runtime "unknown kernel" failure class becomes a lint error.
//   - ctxselect: blocking channel operations inside loops of the
//     engine/server packages select on ctx.Done(), so worker loops
//     cannot outlive a canceled run.
//   - errfile: error construction in the durable stores (fsio,
//     batstore, tracestore) names the exact file when a path is in
//     scope — the "never silent wrong answers" discipline.
//   - rawatomic: sync/atomic stays inside internal/metrics plus an
//     explicit hot-path allowlist; new counters must be registry cells.
//   - locksend: no blocking channel send and no network write while a
//     sync.Mutex/RWMutex is held — the scheduler-mutex streaming
//     contract.
//   - deadexport: every exported package-level name of an internal
//     package has a reference in a non-test file of the module — no
//     product code kept alive only for its tests.
//
// Each check is syntactic (lintkit parses, it does not type-check), so
// the rules are written against the codebase's actual idioms and stay
// cheap enough for every CI run. The single suppression mechanism is
// lintkit's //stetho:ignore <analyzer> <reason>.
package analyzers

import (
	"go/ast"
	"go/token"
	"strconv"

	"stethoscope/internal/analyzers/lintkit"
)

// All returns the full stethovet suite.
func All() []*lintkit.Analyzer {
	return []*lintkit.Analyzer{
		KernelCoverage,
		CtxSelect,
		ErrFile,
		RawAtomic,
		LockSend,
		DeadExport,
	}
}

// exprString renders an expression in canonical source form — the
// analyzers' identity for receivers ("u.mu") and switch tags ("t.Op").
func exprString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return exprString(t.X) + "." + t.Sel.Name
	case *ast.ParenExpr:
		return exprString(t.X)
	case *ast.StarExpr:
		return "*" + exprString(t.X)
	case *ast.IndexExpr:
		return exprString(t.X) + "[" + exprString(t.Index) + "]"
	case *ast.CallExpr:
		return exprString(t.Fun) + "()"
	case *ast.BasicLit:
		return t.Value
	}
	return ""
}

// strLit unwraps a string literal.
func strLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// calleeName splits a call's function into (receiver, method) for
// method calls ("e.Register" -> "e", "Register") or ("", name) for
// plain calls.
func calleeName(call *ast.CallExpr) (recv, name string) {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return "", fn.Name
	case *ast.SelectorExpr:
		return exprString(fn.X), fn.Sel.Name
	}
	return "", ""
}

// funcDecls yields every function declaration of a package with a body.
func funcDecls(pkg *lintkit.Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// pkgMatches reports whether the package's final import-path segment is
// in the set.
func pkgMatches(pkg *lintkit.Package, segs ...string) bool {
	s := pkg.Seg()
	for _, want := range segs {
		if s == want {
			return true
		}
	}
	return false
}
