package compiler

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stethoscope/internal/dot"
	"stethoscope/internal/mal"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/tpch"
)

// adhocShapes are one rendering each of the four statement shapes the
// serve-adhoc benchmark sends at 64 partitions: the point filter, Q6, Q12
// and Q14 with their literals filled in.
var adhocShapes = []string{
	"select l_tax from lineitem where l_orderkey=4711",
	"select sum(l_extendedprice) as revenue, count(*) as matched from lineitem " +
		"where l_shipdate between date '1993-03-04' and date '1994-03-03' and l_discount between 0.04 and 0.06 and l_quantity < 27",
	"select l_shipmode, count(*) as line_count from orders join lineitem on l_orderkey = o_orderkey " +
		"where l_shipmode in ('MAIL', 'AIR') and l_receiptdate between date '1994-02-11' and date '1995-02-10' " +
		"and l_commitdate < l_receiptdate and l_shipdate < l_commitdate group by l_shipmode order by l_shipmode",
	"select count(*) as promo_lines, sum(l_extendedprice) as promo_revenue from lineitem " +
		"join part on p_partkey = l_partkey where p_type like 'PROMO%' and l_shipdate between date '1995-06-01' and date '1995-07-20'",
}

// planTextDigests appends one line per rendering of plan: the SHA-256 of
// its MAL listing and of its dot export. It also checks that the
// statement memo the engine and profiler read renders every instruction
// exactly as StmtString does.
func planTextDigests(t *testing.T, b *strings.Builder, label string, p *mal.Plan) {
	t.Helper()
	fmt.Fprintf(b, "  %s listing %x\n", label, sha256.Sum256([]byte(p.String())))
	fmt.Fprintf(b, "  %s dot %x\n", label, sha256.Sum256([]byte(dot.Export(p).Marshal())))
	for _, in := range p.Instrs {
		if got, want := p.CachedStmt(in), p.StmtString(in); got != want {
			t.Fatalf("%s pc=%d: CachedStmt %q, StmtString %q", label, in.PC, got, want)
		}
	}
}

// TestPlanTextGolden pins the bytes of every plan rendering a client can
// see — the MAL listing and the dot export, of the unoptimized and the
// optimized plan — for every sweep statement × partitions {1, 2, 7, 64},
// and for the four ad hoc shapes at 64 partitions. The golden was
// generated once, before the in-memory plan format changed, and is never
// regenerated: a difference here is a change in output. Every section is
// headed "| static", the name of the one lowering.
func TestPlanTextGolden(t *testing.T) {
	type run struct {
		q     string
		parts int
	}
	var runs []run
	for _, q := range tpch.SweepQueries() {
		for _, parts := range []int{1, 2, 7, 64} {
			runs = append(runs, run{q, parts})
		}
	}
	for _, q := range adhocShapes {
		runs = append(runs, run{q, 64})
	}
	var b strings.Builder
	for _, r := range runs {
		fmt.Fprintf(&b, "== %s | partitions=%d | static\n", r.q, r.parts)
		plan := compileQuery(t, r.q, Options{Partitions: r.parts})
		opt, _, err := optimizer.Default().Run(plan)
		if err != nil {
			t.Fatalf("%s: optimize: %v", r.q, err)
		}
		planTextDigests(t, &b, "unoptimized", plan)
		planTextDigests(t, &b, "optimized", opt)
	}
	path := filepath.Join("testdata", "plan_text.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := range gl {
		if strings.HasPrefix(gl[i], "== ") {
			section = gl[i]
		}
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("plan text differs from %s at line %d, in\n%s\n got: %q", path, i+1, section, gl[i])
		}
	}
	if len(wl) != len(gl) {
		t.Fatalf("plan text is a strict prefix of %s", path)
	}
}
