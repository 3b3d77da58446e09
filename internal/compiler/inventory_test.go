package compiler

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"stethoscope/internal/mal"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/tpch"
)

var update = flag.Bool("update", false, "regenerate testdata goldens")

// opcodeCounts renders the instruction multiset of a plan: one
// "module.function count" line per opcode, sorted.
func opcodeCounts(b *strings.Builder, label string, p *mal.Plan) {
	counts := map[string]int{}
	for _, in := range p.Instrs {
		counts[in.Name()]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(b, "  %s: %d instructions\n", label, len(p.Instrs))
	for _, n := range names {
		fmt.Fprintf(b, "    %s %d\n", n, counts[n])
	}
}

// TestLoweringInventory pins what the lowering emits, as multisets: for
// every statement × partitions {1, 2, 7, 64}, the instruction count per
// opcode of the unoptimized plan and of the plan after the default
// optimizer pipeline. The golden was generated at the commit before the
// per-piece lowering rewrite and must survive any refactor of the
// compiler byte for byte; `go test ./internal/compiler -run
// TestLoweringInventory -update` regenerates it when a lowering change
// is intended. Every section is headed "| static", the name of the one
// lowering.
func TestLoweringInventory(t *testing.T) {
	var b strings.Builder
	for _, q := range tpch.SweepQueries() {
		for _, parts := range []int{1, 2, 7, 64} {
			fmt.Fprintf(&b, "== %s | partitions=%d | static\n", q, parts)
			plan := compileQuery(t, q, Options{Partitions: parts})
			opcodeCounts(&b, "unoptimized", plan)
			opt, _, err := optimizer.Default().Run(plan)
			if err != nil {
				t.Fatalf("%s: optimize: %v", q, err)
			}
			opcodeCounts(&b, "optimized", opt)
		}
	}
	path := filepath.Join("testdata", "lowering_inventory.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		section := ""
		for i := range gl {
			if strings.HasPrefix(gl[i], "== ") {
				section = gl[i]
			}
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("lowering inventory differs from %s at line %d, in\n%s\n got: %q\nwant: %q",
					path, i+1, section, gl[i], strings.Join(wl[min(i, len(wl)):min(i+1, len(wl))], ""))
			}
		}
		t.Fatalf("lowering inventory is a strict prefix of %s", path)
	}
}
