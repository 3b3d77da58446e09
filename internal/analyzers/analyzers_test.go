package analyzers

import (
	"go/ast"
	"testing"

	"stethoscope/internal/analyzers/lintkit"
	"stethoscope/internal/analyzers/lintkit/linttest"
)

func TestCtxSelect(t *testing.T) {
	linttest.Run(t, "testdata/src/ctxselect", CtxSelect)
}

func TestLockSend(t *testing.T) {
	linttest.Run(t, "testdata/src/locksend", LockSend)
}

func TestRawAtomic(t *testing.T) {
	linttest.Run(t, "testdata/src/rawatomic", RawAtomic)
}

func TestErrFile(t *testing.T) {
	linttest.Run(t, "testdata/src/errfile", ErrFile)
}

func TestDeadExport(t *testing.T) {
	linttest.Run(t, "testdata/src/deadexport", DeadExport)
}

func TestKernelCoverage(t *testing.T) {
	linttest.Run(t, "testdata/src/kernelcoverage", KernelCoverage)
}

// TestKernelCoverageRealTree runs the opcode-contract check against the
// actual compiler/optimizer/engine packages. Raw, with no suppression
// applied, the tree must be clean: every registered kernel is emitted
// and every emitted opcode has a kernel. A clean run proves nothing if
// the analyzer resolves nothing, so the positive control deletes one
// e.Register statement from the parsed engine and expects exactly the
// emit sites of that opcode to be reported.
func TestKernelCoverageRealTree(t *testing.T) {
	fset, pkgs, err := lintkit.Load("../..", "./internal/engine", "./internal/compiler", "./internal/optimizer")
	if err != nil {
		t.Fatalf("loading real packages: %v", err)
	}
	raw := func() []lintkit.Diagnostic {
		var ds []lintkit.Diagnostic
		pass := &lintkit.ModulePass{
			Analyzer: KernelCoverage,
			Fset:     fset,
			Pkgs:     pkgs,
			Report:   func(d lintkit.Diagnostic) { ds = append(ds, d) },
		}
		if err := runKernelCoverage(pass); err != nil {
			t.Fatalf("raw kernelcoverage run: %v", err)
		}
		return ds
	}
	for _, d := range raw() {
		t.Errorf("raw diagnostic on the real tree at %s: %s", fset.Position(d.Pos), d.Message)
	}

	const mod, fn = "algebra", "thetaselect"
	if !dropRegister(pkgs, mod, fn) {
		t.Fatalf("registerKernels has no e.Register(%q, %q, ...) statement", mod, fn)
	}
	want := "mal opcode " + mod + "." + fn + " is emitted here but registerKernels installs no such kernel"
	found := raw()
	if len(found) == 0 {
		t.Fatalf("dropping the %s.%s registration produced no finding", mod, fn)
	}
	for _, d := range found {
		if d.Message != want {
			t.Errorf("unexpected diagnostic after dropping %s.%s at %s: %s", mod, fn, fset.Position(d.Pos), d.Message)
		}
	}
}

// dropRegister deletes the e.Register(mod, fn, ...) statement from the
// parsed engine package's registerKernels and reports whether it found one.
func dropRegister(pkgs []*lintkit.Package, mod, fn string) bool {
	for _, pkg := range pkgs {
		if pkg.Seg() != "engine" {
			continue
		}
		for _, fd := range funcDecls(pkg) {
			if fd.Name.Name != "registerKernels" {
				continue
			}
			for i, st := range fd.Body.List {
				es, ok := st.(*ast.ExprStmt)
				if !ok {
					continue
				}
				ce, ok := es.X.(*ast.CallExpr)
				if !ok || len(ce.Args) < 2 {
					continue
				}
				m, _ := strLit(ce.Args[0])
				f, _ := strLit(ce.Args[1])
				if _, name := calleeName(ce); name == "Register" && m == mod && f == fn {
					fd.Body.List = append(fd.Body.List[:i], fd.Body.List[i+1:]...)
					return true
				}
			}
		}
	}
	return false
}

// TestRealTreeClean runs the whole suite over the repository exactly as
// `make lint` does: the tree must be clean under its checked-in
// suppressions.
func TestRealTreeClean(t *testing.T) {
	fset, pkgs, err := lintkit.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	findings, err := lintkit.RunAnalyzers(fset, pkgs, All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, f := range findings {
		t.Errorf("tree is not stethovet-clean: %s", f)
	}
}
