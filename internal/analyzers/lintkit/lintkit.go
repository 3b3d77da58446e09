// Package lintkit is the minimal analysis framework under stethovet,
// the project's invariant linter. It mirrors the shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic, a driver
// that runs analyzers over loaded packages — built on the standard
// library's go/ast alone so the tree lints offline, with no module
// downloads. Analyzers are purely syntactic: each one encodes one
// engine invariant precise enough to check from the AST (see package
// analyzers for the suite).
//
// The one suppression mechanism is the comment
//
//	//stetho:ignore <analyzer> <reason>
//
// placed on the flagged line or the line directly above it. The reason
// is mandatory: an ignore without one is itself reported. So is an
// ignore that suppresses nothing while its analyzer runs. This keeps
// every suppression in the tree self-documenting and current.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named check. Exactly one of Run or RunModule is set:
// Run inspects a single package at a time; RunModule runs once over
// every loaded package (cross-package invariants like kernel coverage).
type Analyzer struct {
	Name string
	Doc  string

	Run       func(*Pass) error
	RunModule func(*ModulePass) error
}

// Package is one parsed (not type-checked) package: its import path,
// directory, and syntax trees with comments.
type Package struct {
	Path  string // import path, e.g. "stethoscope/internal/engine"
	Dir   string
	Name  string // package name from the source
	Files []*ast.File
}

// Seg returns the final import-path segment — the analyzers' unit of
// package matching ("engine", "batstore", ...).
func (p *Package) Seg() string {
	if i := strings.LastIndexByte(p.Path, '/'); i >= 0 {
		return p.Path[i+1:]
	}
	return p.Path
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Report   func(Diagnostic)
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ModulePass carries one module-scope analyzer run over every package.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	Report   func(Diagnostic)
}

// Reportf reports a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a resolved diagnostic: position, owning analyzer, message.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// IgnorePrefix introduces a suppression comment.
const IgnorePrefix = "//stetho:ignore"

// ignore is one parsed suppression comment.
type ignore struct {
	analyzer string
	pos      token.Position
	used     bool // it suppressed at least one diagnostic
}

// parseIgnores collects the //stetho:ignore comments of a file, keyed
// by line. Malformed ignores (no analyzer, or no reason) are returned
// as findings so they fail the lint run instead of silently ignoring
// nothing.
func parseIgnores(fset *token.FileSet, file *ast.File) ([]ignore, []Finding) {
	var igs []ignore
	var bad []Finding
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, IgnorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, IgnorePrefix))
			name, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			pos := fset.Position(c.Pos())
			if name == "" || reason == "" {
				bad = append(bad, Finding{
					Analyzer: "stetho-ignore",
					Pos:      pos,
					Message:  "stetho:ignore needs an analyzer name and a reason: //stetho:ignore <analyzer> <reason>",
				})
				continue
			}
			igs = append(igs, ignore{analyzer: name, pos: pos})
		}
	}
	return igs, bad
}

// RunAnalyzers runs every analyzer over the loaded packages, applies
// the //stetho:ignore suppressions, and returns the surviving findings
// sorted by position. An ignore for an analyzer that ran but suppressed
// nothing is itself a finding. An analyzer returning an error aborts the
// run.
func RunAnalyzers(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	// Suppressions are collected once, over every file of every package.
	type fileKey struct {
		file string
		line int
	}
	var igs []*ignore
	covering := map[fileKey][]*ignore{} // file:line -> ignores covering it
	var findings []Finding
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			parsed, bad := parseIgnores(fset, f)
			findings = append(findings, bad...)
			for i := range parsed {
				ig := &parsed[i]
				igs = append(igs, ig)
				// An ignore suppresses its own line and the line below
				// (standalone comment above the flagged statement).
				for _, line := range []int{ig.pos.Line, ig.pos.Line + 1} {
					k := fileKey{ig.pos.Filename, line}
					covering[k] = append(covering[k], ig)
				}
			}
		}
	}
	keep := func(name string, pos token.Position) bool {
		kept := true
		for _, ig := range covering[fileKey{pos.Filename, pos.Line}] {
			if ig.analyzer == name {
				ig.used = true
				kept = false
			}
		}
		return kept
	}

	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
		report := func(d Diagnostic) {
			pos := fset.Position(d.Pos)
			if keep(a.Name, pos) {
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
		}
		switch {
		case a.RunModule != nil:
			if err := a.RunModule(&ModulePass{Analyzer: a, Fset: fset, Pkgs: pkgs, Report: report}); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		case a.Run != nil:
			for _, pkg := range pkgs {
				if err := a.Run(&Pass{Analyzer: a, Fset: fset, Pkg: pkg, Report: report}); err != nil {
					return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
				}
			}
		default:
			return nil, fmt.Errorf("%s: analyzer has neither Run nor RunModule", a.Name)
		}
	}
	for _, ig := range igs {
		if ran[ig.analyzer] && !ig.used {
			findings = append(findings, Finding{
				Analyzer: "stetho-ignore",
				Pos:      ig.pos,
				Message:  "stetho:ignore " + ig.analyzer + " suppresses nothing on this line or the next; delete it",
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return findings, nil
}
