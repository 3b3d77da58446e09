// Command stethovet is the project's invariant linter: a multichecker
// in the mold of go vet, running the internal/analyzers suite over the
// module. Each analyzer enforces one cross-cutting contract — kernel
// coverage, worker-loop cancellation, store error naming, the atomics
// policy, the no-send-under-lock rule, and no exported internal name
// without a non-test caller — at lint time instead of in review or at
// runtime.
//
// Usage:
//
//	go run ./cmd/stethovet ./...
//	go run -C bench stethoscope/cmd/stethovet ./...   # bench/, a module of its own
//	go run ./cmd/stethovet -list
//	go run ./cmd/stethovet ./internal/engine ./internal/server
//
// Findings print as file:line:col: message (analyzer), one per line,
// and any finding makes the exit status 1 — the contract `make lint`
// and CI rely on. Suppress a reviewed finding with a
// //stetho:ignore <analyzer> <reason> comment on or above the line.
package main

import (
	"flag"
	"fmt"
	"os"

	"stethoscope/internal/analyzers"
	"stethoscope/internal/analyzers/lintkit"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: stethovet [-list] <packages>\n\npackages are go-style patterns relative to the module root: ./..., ./internal/engine, ./internal/...\n\nanalyzers:\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	root, err := lintkit.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "stethovet:", err)
		os.Exit(2)
	}
	fset, pkgs, err := lintkit.Load(root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stethovet:", err)
		os.Exit(2)
	}
	findings, err := lintkit.RunAnalyzers(fset, pkgs, analyzers.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "stethovet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "stethovet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
