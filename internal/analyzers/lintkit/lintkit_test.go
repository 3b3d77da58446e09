package lintkit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// sendFlagger reports every channel send — a minimal analyzer to drive
// the suppression machinery.
var sendFlagger = &Analyzer{
	Name: "sendflag",
	Doc:  "flags every channel send",
	Run: func(p *Pass) error {
		for _, f := range p.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if s, ok := n.(*ast.SendStmt); ok {
					p.Reportf(s.Pos(), "send")
				}
				return true
			})
		}
		return nil
	},
}

func parsePkg(t *testing.T, src string) (*token.FileSet, []*Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, []*Package{{Path: "fix", Name: f.Name.Name, Files: []*ast.File{f}}}
}

func run(t *testing.T, src string) []Finding {
	t.Helper()
	fset, pkgs := parsePkg(t, src)
	findings, err := RunAnalyzers(fset, pkgs, []*Analyzer{sendFlagger})
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	return findings
}

func TestFindingReported(t *testing.T) {
	findings := run(t, `package p
func f(ch chan int) {
	ch <- 1
}
`)
	if len(findings) != 1 || findings[0].Analyzer != "sendflag" {
		t.Fatalf("want one sendflag finding, got %v", findings)
	}
	if findings[0].Pos.Line != 3 {
		t.Fatalf("finding on line %d, want 3", findings[0].Pos.Line)
	}
}

func TestSuppressionOwnLineAndLineAbove(t *testing.T) {
	findings := run(t, `package p
func f(ch chan int) {
	ch <- 1 //stetho:ignore sendflag reason on the same line
	//stetho:ignore sendflag reason on the line above
	ch <- 2
	ch <- 3
}
`)
	if len(findings) != 1 {
		t.Fatalf("want only the unsuppressed send, got %v", findings)
	}
	if findings[0].Pos.Line != 6 {
		t.Fatalf("surviving finding on line %d, want 6", findings[0].Pos.Line)
	}
}

func TestSuppressionIsPerAnalyzer(t *testing.T) {
	findings := run(t, `package p
func f(ch chan int) {
	//stetho:ignore otheranalyzer reason for a different check
	ch <- 1
}
`)
	if len(findings) != 1 {
		t.Fatalf("an ignore for another analyzer must not suppress, got %v", findings)
	}
}

func TestMalformedIgnoreIsReported(t *testing.T) {
	findings := run(t, `package p
//stetho:ignore sendflag
func f() {}
`)
	if len(findings) != 1 || findings[0].Analyzer != "stetho-ignore" {
		t.Fatalf("want one stetho-ignore finding for the missing reason, got %v", findings)
	}
	if !strings.Contains(findings[0].Message, "needs an analyzer name and a reason") {
		t.Fatalf("unexpected message %q", findings[0].Message)
	}
}

func TestStaleIgnoreIsReported(t *testing.T) {
	findings := run(t, `package p
func f(ch chan int) {
	//stetho:ignore sendflag the send below was removed
	close(ch)
	//stetho:ignore otheranalyzer did not run, so it is not judged
	close(ch)
}
`)
	if len(findings) != 1 || findings[0].Analyzer != "stetho-ignore" || findings[0].Pos.Line != 3 {
		t.Fatalf("want one stetho-ignore finding on line 3, got %v", findings)
	}
	if !strings.Contains(findings[0].Message, "stetho:ignore sendflag suppresses nothing") {
		t.Fatalf("unexpected message %q", findings[0].Message)
	}
}

func TestUsedIgnoreIsNotReported(t *testing.T) {
	findings := run(t, `package p
func f(ch chan int) {
	ch <- 1 //stetho:ignore sendflag suppresses the send on its own line
	//stetho:ignore sendflag suppresses the send on the line below
	ch <- 2
}
`)
	if len(findings) != 0 {
		t.Fatalf("ignores that suppress a finding are not stale, got %v", findings)
	}
}

func TestSeg(t *testing.T) {
	for path, want := range map[string]string{
		"stethoscope/internal/engine": "engine",
		"stethoscope":                 "stethoscope",
	} {
		if got := (&Package{Path: path}).Seg(); got != want {
			t.Errorf("Seg(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestLoadPatterns loads this module through the three pattern shapes
// the stethovet CLI accepts.
func TestLoadPatterns(t *testing.T) {
	_, one, err := Load("../../..", "./internal/analyzers/lintkit")
	if err != nil {
		t.Fatalf("single-dir load: %v", err)
	}
	if len(one) != 1 || one[0].Seg() != "lintkit" {
		t.Fatalf("single-dir load returned %d packages", len(one))
	}
	_, tree, err := Load("../../..", "./internal/analyzers/...")
	if err != nil {
		t.Fatalf("subtree load: %v", err)
	}
	if len(tree) < 3 { // analyzers, lintkit, linttest at least
		t.Fatalf("subtree load returned %d packages, want >= 3", len(tree))
	}
	for _, p := range tree {
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("testdata package leaked into the load: %s", p.Path)
		}
	}
}
