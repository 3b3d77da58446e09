package analyzers

import (
	"go/ast"
	"path/filepath"

	"stethoscope/internal/analyzers/lintkit"
)

// atomicAllowlist names the files (as "<package segment>/<file>") that
// may use sync/atomic directly, each with the reason it is exempt. This
// is the complete sanctioned set: the engine's per-run hot paths, where
// an execution-local atomic is the data structure itself rather than a
// counter (the metrics registry is the home for counters — its cells
// are the only sanctioned process-wide atomics). Adding a file here is
// a review decision, the same as adding a suppression comment.
var atomicAllowlist = map[string]string{
	"engine/engine.go":   "dataflow scheduler: per-run pending/completed cells are the scheduling state, not metrics",
	"engine/morsel.go":   "morsel cursor: the run's morsel cursor is claimed with one atomic add per morsel",
	"engine/progress.go": "live progress: per-run counters read lock-free by DB.Progress while workers run",
	"storage/recycle.go": "allocation helper: the owner count and pinned mark on a shared array are its ownership state, not metrics",
}

// RawAtomic flags direct sync/atomic use outside internal/metrics and
// the explicit hot-path allowlist above. Everything else that wants a
// process-wide counter, gauge, or rate must go through a metrics
// registry cell, so the METRICS command, the Prometheus endpoint, and
// DB.Stats stay the one source of truth.
var RawAtomic = &lintkit.Analyzer{
	Name: "rawatomic",
	Doc:  "sync/atomic is reserved for internal/metrics cells and allowlisted engine hot paths",
	Run:  runRawAtomic,
}

func runRawAtomic(pass *lintkit.Pass) error {
	if pkgMatches(pass.Pkg, "metrics") {
		return nil
	}
	for _, file := range pass.Pkg.Files {
		var imported bool
		var importPos ast.Node
		for _, imp := range file.Imports {
			if path, ok := strLit(imp.Path); ok && path == "sync/atomic" {
				imported, importPos = true, imp
				break
			}
		}
		if !imported {
			continue
		}
		key := pass.Pkg.Seg() + "/" + filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		if _, ok := atomicAllowlist[key]; ok {
			continue
		}
		pass.Reportf(importPos.Pos(),
			"%s imports sync/atomic outside internal/metrics and the hot-path allowlist; use a metrics registry cell (Counter/Gauge/Rate) or add the file to atomicAllowlist with a reason", key)
	}
	return nil
}
