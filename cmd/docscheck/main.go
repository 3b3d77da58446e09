// Command docscheck is the documentation linter: it cross-checks the
// prose docs (README.md, DESIGN.md, ARCHITECTURE.md) against the tree
// they describe, so a rename or a deleted package fails `make lint`
// instead of leaving the docs quietly wrong.
//
// Three checks, all syntactic (the same no-downloads discipline as
// stethovet — packages load through internal/analyzers/lintkit):
//
//   - Backticked repo paths (`internal/...`, `cmd/...`, `examples/...`,
//     bare root files like `bench_test.go`) must exist.
//   - Backticked Go identifiers — exported names, optionally qualified
//     by one of this module's package names (`engine.RunContext`,
//     `DB.Stream`) — must be declared somewhere in the tree, test
//     files included.
//   - ARCHITECTURE.md must mention every internal package, so the
//     canonical map cannot silently fall behind a new subsystem.
//
// Spans the checker cannot attribute are skipped, never guessed at:
// fenced code blocks (illustrative samples), lowercase-only spans (MAL
// opcodes like `mat.pack`, wire keywords, shell fragments), ALL-CAPS
// tokens (`STATS`, `GOMAXPROCS`), spans with shell syntax, and
// qualifiers that are not this module's packages (`iter.Seq`). The
// point is zero false positives on the existing docs, not completeness
// — every flagged span is a real dangling reference.
//
// Usage: docscheck [-root dir] [doc.md ...]; with no args it checks
// README.md, DESIGN.md, and ARCHITECTURE.md under the root. Findings
// print as file:line: message and make the exit status 1.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"stethoscope/internal/analyzers/lintkit"
)

func main() {
	root := flag.String("root", ".", "module root to check the docs against")
	flag.Parse()
	docs := flag.Args()
	if len(docs) == 0 {
		docs = []string{"README.md", "DESIGN.md", "ARCHITECTURE.md"}
	}

	known, pkgSegs, err := declaredNames(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}

	var findings []string
	for _, doc := range docs {
		f, err := checkDoc(*root, doc, known, pkgSegs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(2)
		}
		findings = append(findings, f...)
	}
	findings = append(findings, checkArchitectureComplete(*root)...)

	sort.Strings(findings)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d dangling reference(s)\n", len(findings))
		os.Exit(1)
	}
}

// declaredNames loads every package of the module (non-test sources via
// the lintkit loader, test files via a direct walk) and returns the set
// of declared identifiers — functions, methods, types, struct fields,
// interface methods, consts, vars — plus the set of package-name
// segments usable as qualifiers in the docs.
func declaredNames(root string) (known, pkgSegs map[string]bool, err error) {
	_, pkgs, err := lintkit.Load(root, "./...")
	if err != nil {
		return nil, nil, err
	}
	known = map[string]bool{}
	pkgSegs = map[string]bool{"stethoscope": true}
	for _, p := range pkgs {
		pkgSegs[p.Seg()] = true
		for _, f := range p.Files {
			collect(f, known)
		}
	}
	// Test files declare doc-referenced names too (benchmarks, the
	// equality-sweep tests); the lintkit loader deliberately skips them.
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if perr != nil {
			return perr
		}
		collect(f, known)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return known, pkgSegs, nil
}

// collect walks one file and records every declared name: top-level
// decls, methods, struct fields, and interface methods. Function
// parameters ride along through the shared *ast.Field case; they only
// widen the known set, which errs on the quiet side.
func collect(f *ast.File, known map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			known[d.Name.Name] = true
		case *ast.TypeSpec:
			known[d.Name.Name] = true
		case *ast.ValueSpec:
			for _, name := range d.Names {
				known[name.Name] = true
			}
		case *ast.Field:
			for _, name := range d.Names {
				known[name.Name] = true
			}
		}
		return true
	})
}

// checkDoc scans one markdown file's inline code spans (fenced blocks
// are skipped) and returns a finding per dangling reference.
func checkDoc(root, doc string, known, pkgSegs map[string]bool) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(root, doc))
	if err != nil {
		return nil, err
	}
	var findings []string
	fenced := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		parts := strings.Split(line, "`")
		// Odd indices are inside backticks; an unbalanced trailing part
		// (no closing backtick on the line) is ignored.
		for j := 1; j < len(parts)-1; j += 2 {
			if msg := checkSpan(root, parts[j], known, pkgSegs); msg != "" {
				findings = append(findings, fmt.Sprintf("%s:%d: %s", doc, i+1, msg))
			}
		}
	}
	return findings, nil
}

func isPathSafe(s string) bool {
	for _, r := range s {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '_' || r == '.' || r == '/' || r == '-') {
			return false
		}
	}
	return true
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_'
		if !alpha && (i == 0 || !(r >= '0' && r <= '9')) {
			return false
		}
	}
	return true
}

// allCaps reports a token like STATS, GOMAXPROCS, or EVTB — protocol
// keywords and environment names, not Go identifiers.
func allCaps(s string) bool {
	if len(s) < 2 {
		return false
	}
	return s == strings.ToUpper(s) && s != strings.ToLower(s)
}

// checkSpan classifies one inline code span and returns a finding
// message for a dangling reference, or "" when the span is fine or not
// attributable.
func checkSpan(root, span string, known, pkgSegs map[string]bool) string {
	s := strings.TrimSpace(span)
	if s == "" {
		return ""
	}
	// `WithHistoryConfig(hc)` → `WithHistoryConfig`; a paren anywhere
	// else (shell fragments) makes the span unattributable.
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return ""
		}
		s = s[:i]
	}
	s = strings.TrimPrefix(s, "./")

	// Repo paths: only this module's trees are enforced — `go/ast` or
	// `database/sql` are someone else's namespace.
	if strings.HasPrefix(s, "internal/") || strings.HasPrefix(s, "cmd/") || strings.HasPrefix(s, "examples/") {
		if !isPathSafe(s) {
			return ""
		}
		p := strings.TrimSuffix(strings.TrimSuffix(s, "/..."), "/")
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Sprintf("path %q does not exist in the tree", p)
		}
		return ""
	}
	if strings.ContainsAny(s, "/\\") {
		return ""
	}
	// A bare root file (`bench_test.go`, `DESIGN.md`, `Makefile`): fine
	// if it exists; otherwise fall through to the identifier rules.
	if _, err := os.Stat(filepath.Join(root, s)); err == nil {
		return ""
	}
	if strings.HasSuffix(s, ".go") || strings.HasSuffix(s, ".md") {
		return fmt.Sprintf("file %q does not exist at the repo root", s)
	}
	// Other file-extension spans (`BENCH_baseline.json`, `plan.svg`) are
	// runtime artifacts, not tree contents.
	if i := strings.LastIndexByte(s, '.'); i > 0 {
		switch s[i+1:] {
		case "json", "yml", "yaml", "svg", "csv", "dot", "trace", "tlog", "col", "mod", "txt":
			return ""
		}
	}

	segs := strings.Split(s, ".")
	for _, seg := range segs {
		if !isIdent(seg) {
			return ""
		}
	}
	// A lowercase qualifier that is not one of this module's packages
	// (`iter.Seq`, `mat.pack`) is outside our namespace.
	if len(segs) > 1 && !segIsUpper(segs[0]) && !pkgSegs[segs[0]] {
		return ""
	}
	for _, seg := range segs {
		if allCaps(seg) || !segIsUpper(seg) {
			continue // keywords, opcodes, locals: not attributable
		}
		if !known[seg] && !pkgSegs[seg] {
			return fmt.Sprintf("identifier %q (in `%s`) is not declared anywhere in the tree", seg, span)
		}
	}
	return ""
}

func segIsUpper(s string) bool {
	return s != "" && s[0] >= 'A' && s[0] <= 'Z'
}

// checkArchitectureComplete walks internal/ for package directories
// (any directory holding .go files, test-only packages included) and
// requires ARCHITECTURE.md to mention each one by its repo-relative
// path.
func checkArchitectureComplete(root string) []string {
	data, err := os.ReadFile(filepath.Join(root, "ARCHITECTURE.md"))
	if err != nil {
		return []string{fmt.Sprintf("ARCHITECTURE.md: %v", err)}
	}
	text := string(data)
	var findings []string
	seen := map[string]bool{}
	filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(root, dir)
		if err != nil || seen[rel] {
			return nil
		}
		seen[rel] = true
		if !strings.Contains(text, filepath.ToSlash(rel)) {
			findings = append(findings,
				fmt.Sprintf("ARCHITECTURE.md:1: package %q is not mentioned — the package map is incomplete", filepath.ToSlash(rel)))
		}
		return nil
	})
	return findings
}
