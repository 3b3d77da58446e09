// Package linttest runs lintkit analyzers over testdata fixtures, in
// the style of golang.org/x/tools/go/analysis/analysistest: fixture
// sources annotate the lines an analyzer must flag with
//
//	code() // want "regexp matching the diagnostic"
//
// and Run fails the test on any unmatched expectation or unexpected
// diagnostic. Suppressions (//stetho:ignore) are applied exactly as the
// stethovet driver applies them, so fixtures also prove the suppression
// mechanism is honored.
package linttest

import (
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"stethoscope/internal/analyzers/lintkit"
)

// expectation is one `// want "re"` annotation.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	met  bool
}

var wantRE = regexp.MustCompile(`// want (".*")\s*$`)

// Run loads the fixture tree rooted at dir (import paths rooted at the
// directory's base name), runs the analyzers, and matches findings
// against the fixtures' want annotations.
//
//stetho:ignore deadexport shared test fixture: the analyzers' tests drive their fixtures through it
func Run(t *testing.T, dir string, analyzers ...*lintkit.Analyzer) {
	t.Helper()
	fset, pkgs, err := lintkit.LoadTree(dir, filepath.Base(dir))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s holds no packages", dir)
	}
	wants := collectWants(t, fset, pkgs)
	findings, err := lintkit.RunAnalyzers(fset, pkgs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}
	for _, f := range findings {
		if !match(wants, f) {
			t.Errorf("unexpected diagnostic at %s: %s (%s)", f.Pos, f.Message, f.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no diagnostic matched want %s", w.file, w.line, w.text)
		}
	}
}

// match marks and reports the first unmet expectation covering f.
func match(wants []*expectation, f lintkit.Finding) bool {
	for _, w := range wants {
		if w.met || w.file != f.Pos.Filename || w.line != f.Pos.Line {
			continue
		}
		if w.re.MatchString(f.Message) {
			w.met = true
			return true
		}
	}
	return false
}

// collectWants scans every fixture file for want annotations. The scan
// re-tokenizes the raw source rather than walking ast comment groups so
// a want on any line — including inside general declarations — is seen.
func collectWants(t *testing.T, fset *token.FileSet, pkgs []*lintkit.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := fset.Position(f.Pos()).Filename
			if seen[name] {
				continue
			}
			seen[name] = true
			wants = append(wants, fileWants(t, name)...)
		}
	}
	return wants
}

func fileWants(t *testing.T, filename string) []*expectation {
	t.Helper()
	src, err := os.ReadFile(filename)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	fset := token.NewFileSet()
	file := fset.AddFile(filename, -1, len(src))
	var sc scanner.Scanner
	sc.Init(file, src, nil, scanner.ScanComments)
	var wants []*expectation
	for {
		pos, tok, lit := sc.Scan()
		if tok == token.EOF {
			break
		}
		if tok != token.COMMENT {
			continue
		}
		m := wantRE.FindStringSubmatch(lit)
		if m == nil {
			continue
		}
		pattern, err := strconv.Unquote(m[1])
		if err != nil {
			t.Fatalf("%s: bad want annotation %s: %v", fset.Position(pos), m[1], err)
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", fset.Position(pos), pattern, err)
		}
		wants = append(wants, &expectation{
			file: filename,
			line: fset.Position(pos).Line,
			re:   re,
			text: m[1],
		})
	}
	return wants
}
