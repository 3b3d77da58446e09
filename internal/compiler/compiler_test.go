package compiler

import (
	"strings"
	"testing"

	"stethoscope/internal/algebra"
	"stethoscope/internal/mal"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/sql"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
)

var testCat = func() *storage.Catalog {
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.0005, Seed: 3}); err != nil {
		panic(err)
	}
	return cat
}()

func compileQuery(t testing.TB, q string, opt Options) *mal.Plan {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	tree, err := algebra.Bind(stmt, testCat)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	plan, err := Compile(tree, q, opt)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid: %v\n%s", err, plan)
	}
	return plan
}

func countInstrs(p *mal.Plan, name string) int {
	n := 0
	for _, in := range p.Instrs {
		if in.Name() == name {
			n++
		}
	}
	return n
}

func TestPaperQueryPlanShape(t *testing.T) {
	// Figure 1's query must lower to bind -> thetaselect -> leftjoin.
	plan := compileQuery(t, "select l_tax from lineitem where l_partkey=1", Options{})
	if n := countInstrs(plan, "sql.bind"); n != 2 {
		t.Errorf("sql.bind count = %d, want 2 (l_partkey, l_tax)", n)
	}
	if n := countInstrs(plan, "algebra.thetaselect"); n != 1 {
		t.Errorf("thetaselect count = %d, want 1", n)
	}
	if n := countInstrs(plan, "algebra.leftjoin"); n != 2 {
		t.Errorf("leftjoin count = %d, want 2", n)
	}
	if n := countInstrs(plan, "sql.exportResult"); n != 1 {
		t.Errorf("exportResult count = %d", n)
	}
	text := plan.String()
	if !strings.Contains(text, "select l_tax from lineitem") {
		t.Error("plan listing should carry the query text")
	}
}

func TestMitosisPartitioning(t *testing.T) {
	q := "select l_tax from lineitem where l_partkey=1"
	base := compileQuery(t, q, Options{Partitions: 1})
	part := compileQuery(t, q, Options{Partitions: 8})
	if len(part.Instrs) <= len(base.Instrs) {
		t.Fatalf("partitioned plan not larger: %d vs %d", len(part.Instrs), len(base.Instrs))
	}
	// 2 columns x 8 partitions slices.
	if n := countInstrs(part, "mat.slice"); n != 16 {
		t.Errorf("mat.slice count = %d, want 16", n)
	}
	// One thetaselect per partition.
	if n := countInstrs(part, "algebra.thetaselect"); n != 8 {
		t.Errorf("thetaselect count = %d, want 8", n)
	}
	// One pack for the single projected output column: the projection
	// runs per partition, so the filtered l_partkey column is never
	// reassembled at all.
	if n := countInstrs(part, "mat.pack"); n != 1 {
		t.Errorf("mat.pack count = %d, want 1", n)
	}
}

func TestMitosisBareScan(t *testing.T) {
	// A bare projection computes nothing per slice, so the scan stays
	// unsliced until an operator that works piece-wise needs the slices:
	// a distinct above it slices the projected column, one slice per
	// partition.
	plan := compileQuery(t, "select distinct l_returnflag from lineitem", Options{Partitions: 4})
	if n := countInstrs(plan, "mat.slice"); n != 4 {
		t.Errorf("mat.slice count = %d, want 4", n)
	}
}

// TestBareProjectionEmitsNoSlice: a partitioned bare projection, with
// or without a limit, lowers to exactly the plan the unpartitioned
// lowering emits — no mat.slice whose pieces a mat.pack would only
// reassemble — before and after the default optimizer pipeline.
func TestBareProjectionEmitsNoSlice(t *testing.T) {
	for _, q := range []string{
		"select l_tax from lineitem",
		"select l_orderkey from lineitem limit 3",
		"select l_tax, l_orderkey, l_tax from lineitem",
	} {
		want := compileQuery(t, q, Options{Partitions: 1})
		wantOpt, _, err := optimizer.Default().Run(want)
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{2, 8, 64} {
			plan := compileQuery(t, q, Options{Partitions: parts})
			if n := countInstrs(plan, "mat.slice"); n != 0 {
				t.Errorf("%s at %d partitions: %d mat.slice, want 0", q, parts, n)
			}
			if plan.String() != want.String() {
				t.Errorf("%s at %d partitions:\n%s\nwant the unpartitioned plan:\n%s", q, parts, plan, want)
			}
			opt, _, err := optimizer.Default().Run(plan)
			if err != nil {
				t.Fatal(err)
			}
			if opt.String() != wantOpt.String() {
				t.Errorf("%s at %d partitions, optimized:\n%s\nwant:\n%s", q, parts, opt, wantOpt)
			}
		}
	}
}

func TestMitosisGlobalAggregate(t *testing.T) {
	// sum over a filtered scan: per-partition filter + partial sums,
	// one pack of the partials, one combining sum.
	plan := compileQuery(t,
		"select sum(l_quantity) from lineitem where l_partkey < 100", Options{Partitions: 4})
	if n := countInstrs(plan, "aggr.sum"); n != 5 {
		t.Errorf("aggr.sum count = %d, want 5 (4 partials + 1 combine)", n)
	}
	if n := countInstrs(plan, "mat.pack"); n != 1 {
		t.Errorf("mat.pack count = %d, want 1 (packed partials)", n)
	}
	if n := countInstrs(plan, "algebra.thetaselect"); n != 4 {
		t.Errorf("thetaselect count = %d, want 4 (per-partition filter)", n)
	}
}

func TestMitosisGlobalMinGuardsEmptySlices(t *testing.T) {
	// min/max recombination must skip empty slices: the partial of an
	// empty slice is a zero-valued placeholder. The plan therefore
	// carries per-slice counts and a thetaselect > 0 over them.
	plan := compileQuery(t, "select min(l_quantity) from lineitem", Options{Partitions: 4})
	if n := countInstrs(plan, "aggr.min"); n != 5 {
		t.Errorf("aggr.min count = %d, want 5 (4 partials + 1 combine)", n)
	}
	if n := countInstrs(plan, "aggr.count"); n != 4 {
		t.Errorf("aggr.count count = %d, want 4 (per-slice liveness)", n)
	}
	if n := countInstrs(plan, "algebra.thetaselect"); n != 1 {
		t.Errorf("thetaselect count = %d, want 1 (live-slice guard)", n)
	}
}

func TestMitosisGroupBy(t *testing.T) {
	plan := compileQuery(t,
		"select l_returnflag, sum(l_quantity), count(*) from lineitem group by l_returnflag",
		Options{Partitions: 4})
	// One subgroup per partition plus the merge regroup.
	if n := countInstrs(plan, "group.subgroup"); n != 5 {
		t.Errorf("subgroup count = %d, want 5", n)
	}
	// Partial sums per partition, then one combining subsum for the sum
	// aggregate and one for the count partials (counts recombine by
	// summation).
	if n := countInstrs(plan, "aggr.subsum"); n != 6 {
		t.Errorf("subsum count = %d, want 6 (4 partials + 2 combines)", n)
	}
	if n := countInstrs(plan, "aggr.subcount"); n != 4 {
		t.Errorf("subcount count = %d, want 4 (per-partition partials)", n)
	}
	// Packs: key representatives, sum partials, count partials.
	if n := countInstrs(plan, "mat.pack"); n != 3 {
		t.Errorf("mat.pack count = %d, want 3", n)
	}
}

func TestMitosisAvgFallsBackToPackedGroupBy(t *testing.T) {
	// avg does not decompose into partials in this instruction set: the
	// group-by must run over the packed relation (one subgroup total).
	plan := compileQuery(t,
		"select l_returnflag, avg(l_quantity) from lineitem group by l_returnflag",
		Options{Partitions: 4})
	if n := countInstrs(plan, "aggr.subavg"); n != 1 {
		t.Errorf("subavg count = %d, want 1", n)
	}
	if n := countInstrs(plan, "group.subgroup"); n != 1 {
		t.Errorf("subgroup count = %d, want 1 (packed fallback)", n)
	}
	// The scan was never sliced: its deferred mitosis form hands the
	// bound columns to the fallback directly, with no slice/pack chain.
	if n := countInstrs(plan, "mat.pack") + countInstrs(plan, "mat.slice"); n != 0 {
		t.Errorf("mat instruction count = %d, want 0 (lazy scan, packed fallback)", n)
	}
}

func TestMitosisDistinct(t *testing.T) {
	plan := compileQuery(t, "select distinct l_returnflag from lineitem", Options{Partitions: 4})
	// Per-partition dedup (4) plus the merged dedup over the packed
	// survivors.
	if n := countInstrs(plan, "group.subgroup"); n != 5 {
		t.Errorf("subgroup count = %d, want 5", n)
	}
}

func TestGroupAggLowering(t *testing.T) {
	plan := compileQuery(t,
		"select l_returnflag, sum(l_quantity), count(*) from lineitem group by l_returnflag", Options{})
	if n := countInstrs(plan, "group.subgroup"); n != 1 {
		t.Errorf("subgroup count = %d", n)
	}
	if n := countInstrs(plan, "aggr.subsum"); n != 1 {
		t.Errorf("subsum count = %d", n)
	}
	if n := countInstrs(plan, "aggr.subcount"); n != 1 {
		t.Errorf("subcount count = %d", n)
	}
}

func TestGlobalAggLowering(t *testing.T) {
	plan := compileQuery(t, "select count(*), sum(l_quantity) from lineitem", Options{})
	if n := countInstrs(plan, "aggr.count"); n != 1 {
		t.Errorf("aggr.count = %d", n)
	}
	if n := countInstrs(plan, "aggr.sum"); n != 1 {
		t.Errorf("aggr.sum = %d", n)
	}
	if n := countInstrs(plan, "group.subgroup"); n != 0 {
		t.Errorf("unexpected grouping: %d", n)
	}
}

func TestJoinLowering(t *testing.T) {
	plan := compileQuery(t,
		"select o_totalprice, l_tax from orders join lineitem on l_orderkey = o_orderkey", Options{})
	if n := countInstrs(plan, "algebra.hashbuild"); n != 1 {
		t.Fatalf("hashbuild count = %d, want 1", n)
	}
	if n := countInstrs(plan, "algebra.hashprobe"); n != 1 {
		t.Fatalf("hashprobe count = %d, want 1 (a packed probe side is one piece)", n)
	}
	// The build precedes the probe, which reads its hash and has two
	// result variables.
	hash := -1
	for _, in := range plan.Instrs {
		switch in.Name() {
		case "algebra.hashbuild":
			hash = in.Rets[0]
		case "algebra.hashprobe":
			if hash < 0 || in.Args[1].IsConst() || in.Args[1].Var() != hash {
				t.Errorf("hashprobe does not read the hashbuild result")
			}
			if len(in.Rets) != 2 {
				t.Errorf("hashprobe rets = %d", len(in.Rets))
			}
		}
	}
}

func TestSortAndLimitLowering(t *testing.T) {
	plan := compileQuery(t, "select l_tax from lineitem order by l_tax desc limit 5", Options{})
	if n := countInstrs(plan, "algebra.sortTail"); n != 1 {
		t.Errorf("sortTail = %d", n)
	}
	if n := countInstrs(plan, "algebra.slice"); n != 1 {
		t.Errorf("slice = %d", n)
	}
	// Multi-key sort emits one sortTail per key.
	plan = compileQuery(t, "select l_tax, l_quantity from lineitem order by l_tax, l_quantity desc", Options{})
	if n := countInstrs(plan, "algebra.sortTail"); n != 2 {
		t.Errorf("multi-key sortTail = %d", n)
	}
}

func TestDistinctLowering(t *testing.T) {
	plan := compileQuery(t, "select distinct l_returnflag from lineitem", Options{})
	if n := countInstrs(plan, "group.subgroup"); n != 1 {
		t.Errorf("distinct subgroup = %d", n)
	}
}

func TestComplexExpressionLowering(t *testing.T) {
	plan := compileQuery(t,
		"select l_extendedprice * (1 - l_discount) as revenue from lineitem", Options{})
	// 1 - l_discount needs a flipped scalar sub, then a mul.
	if n := countInstrs(plan, "batcalc.sub"); n != 1 {
		t.Errorf("batcalc.sub = %d", n)
	}
	if n := countInstrs(plan, "batcalc.mul"); n != 1 {
		t.Errorf("batcalc.mul = %d", n)
	}
}

func TestDisjunctionFallsBackToBoolPath(t *testing.T) {
	plan := compileQuery(t,
		"select l_tax from lineitem where l_partkey = 1 or l_quantity > 49", Options{})
	if n := countInstrs(plan, "batcalc.or"); n != 1 {
		t.Errorf("batcalc.or = %d", n)
	}
	if n := countInstrs(plan, "algebra.selectTrue"); n != 1 {
		t.Errorf("selectTrue = %d", n)
	}
	if n := countInstrs(plan, "algebra.thetaselect"); n != 0 {
		t.Errorf("unexpected thetaselect = %d", n)
	}
}

func TestConstantFolding(t *testing.T) {
	plan := compileQuery(t, "select l_quantity * (2 + 3) from lineitem", Options{})
	// 2+3 folds; only the mul against the column remains.
	if n := countInstrs(plan, "batcalc.add"); n != 0 {
		t.Errorf("unfolded add = %d", n)
	}
	if n := countInstrs(plan, "batcalc.mul"); n != 1 {
		t.Errorf("mul = %d", n)
	}
	found := false
	for _, in := range plan.Instrs {
		if in.Name() == "batcalc.mul" {
			for _, a := range in.Args {
				if a.IsConst() && plan.Const(a).Int == 5 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("folded constant 5 not found in mul args")
	}
}

func TestBetweenLowering(t *testing.T) {
	plan := compileQuery(t,
		"select l_tax from lineitem where l_shipdate between date '1993-01-01' and date '1994-01-01'", Options{})
	if n := countInstrs(plan, "algebra.select"); n != 1 {
		t.Errorf("range select = %d", n)
	}
}

func TestPrologueAndEpilogue(t *testing.T) {
	plan := compileQuery(t, "select l_tax from lineitem", Options{})
	if plan.Instrs[0].Name() != "querylog.define" {
		t.Errorf("first instr = %s", plan.Instrs[0].Name())
	}
	last := plan.Instrs[len(plan.Instrs)-1]
	if last.Name() != "sql.exportResult" {
		t.Errorf("last instr = %s", last.Name())
	}
	if n := countInstrs(plan, "sql.rsColumn"); n != 1 {
		t.Errorf("rsColumn = %d", n)
	}
}

func TestLargePlanViaPartitions(t *testing.T) {
	// F2 backing: a multi-column filter at high partition count must
	// exceed 1000 instructions.
	q := `select l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice, l_discount, l_tax, l_shipdate
		from lineitem where l_quantity > 10 and l_discount < 0.05`
	plan := compileQuery(t, q, Options{Partitions: 64})
	if len(plan.Instrs) < 1000 {
		t.Errorf("partitioned plan has %d instructions, want > 1000", len(plan.Instrs))
	}
}

func TestDepsFormDAG(t *testing.T) {
	plan := compileQuery(t,
		"select l_returnflag, sum(l_quantity) from lineitem where l_partkey < 100 group by l_returnflag order by l_returnflag", Options{Partitions: 4})
	deps := plan.Deps()
	for pc, ds := range deps {
		for _, d := range ds {
			if d >= pc {
				t.Fatalf("instruction %d depends on later instruction %d", pc, d)
			}
		}
	}
}

func TestLikeLowering(t *testing.T) {
	plan := compileQuery(t, "select p_partkey from part where p_type like 'PROMO%'", Options{})
	if n := countInstrs(plan, "batcalc.like"); n != 1 {
		t.Errorf("batcalc.like = %d", n)
	}
	if n := countInstrs(plan, "algebra.selectTrue"); n != 1 {
		t.Errorf("selectTrue = %d", n)
	}
}

func TestInLowering(t *testing.T) {
	// IN desugars to an equality disjunction in the binder, which the
	// compiler lowers through the boolean path.
	plan := compileQuery(t, "select l_orderkey from lineitem where l_shipmode in ('MAIL', 'SHIP', 'AIR')", Options{})
	if n := countInstrs(plan, "batcalc.eq"); n != 3 {
		t.Errorf("batcalc.eq = %d, want 3", n)
	}
	if n := countInstrs(plan, "batcalc.or"); n != 2 {
		t.Errorf("batcalc.or = %d, want 2", n)
	}
}

// TestPartitionedJoinPlanShape: a join whose probe side sits above a
// sliced scan compiles to build-once/probe-per-slice — exactly one
// algebra.hashbuild and one algebra.hashprobe per slice — and the same
// join unpartitioned is one build and one probe.
func TestPartitionedJoinPlanShape(t *testing.T) {
	q := "select l_tax, o_totalprice from lineitem, orders where l_orderkey = o_orderkey"
	plan := compileQuery(t, q, Options{Partitions: 8})
	if n := countInstrs(plan, "algebra.hashbuild"); n != 1 {
		t.Errorf("hashbuild count = %d, want 1 (build once)", n)
	}
	if n := countInstrs(plan, "algebra.hashprobe"); n != 8 {
		t.Errorf("hashprobe count = %d, want 8 (one per probe slice)", n)
	}
	// Probe-side scan sliced, build side bound whole.
	if n := countInstrs(plan, "mat.slice"); n != 16 { // 2 probe columns x 8
		t.Errorf("mat.slice count = %d, want 16", n)
	}
	seq := compileQuery(t, q, Options{Partitions: 1})
	if n := countInstrs(seq, "algebra.hashbuild"); n != 1 {
		t.Errorf("sequential hashbuild count = %d, want 1", n)
	}
	if n := countInstrs(seq, "algebra.hashprobe"); n != 1 {
		t.Errorf("sequential hashprobe count = %d, want 1", n)
	}
}

// TestPartitionedJoinOutputStaysPartitioned: aggregation above a
// partitioned join consumes the per-slice join outputs without an
// intervening pack-per-column of the join result (the only packs are
// the mergetable partial-aggregate recombinations).
func TestPartitionedJoinOutputStaysPartitioned(t *testing.T) {
	q := "select o_orderpriority, count(*) as n from lineitem, orders where l_orderkey = o_orderkey group by o_orderpriority"
	plan := compileQuery(t, q, Options{Partitions: 4})
	if n := countInstrs(plan, "algebra.hashprobe"); n != 4 {
		t.Fatalf("hashprobe count = %d, want 4", n)
	}
	// Per-slice grouping on the join output: one subgroup per slice plus
	// one merge regrouping.
	if n := countInstrs(plan, "group.subgroup"); n != 5 {
		t.Errorf("subgroup count = %d, want 5 (4 slices + merge)", n)
	}
}

// TestMergedSortPlanShape: a sort above a sliced scan compiles to one
// stable sort per slice plus a single mat.kmerge recombination.
func TestMergedSortPlanShape(t *testing.T) {
	q := "select l_orderkey, l_extendedprice from lineitem order by l_extendedprice"
	plan := compileQuery(t, q, Options{Partitions: 8})
	if n := countInstrs(plan, "algebra.sortTail"); n != 8 {
		t.Errorf("sortTail count = %d, want 8 (one per slice)", n)
	}
	if n := countInstrs(plan, "mat.kmerge"); n != 1 {
		t.Errorf("kmerge count = %d, want 1", n)
	}
	// kmerge carries nkeys + asc + 8 key columns.
	for _, in := range plan.Instrs {
		if in.Name() == "mat.kmerge" && len(in.Args) != 1+1+8 {
			t.Errorf("kmerge has %d args, want 10", len(in.Args))
		}
	}
	seq := compileQuery(t, q, Options{Partitions: 1})
	if n := countInstrs(seq, "mat.kmerge"); n != 0 {
		t.Errorf("sequential sort emitted %d kmerge instructions", n)
	}
	if n := countInstrs(seq, "algebra.sortTail"); n != 1 {
		t.Errorf("sequential sortTail count = %d, want 1", n)
	}
}

// TestMergedSortMultiKeyPlanShape: every key sorts per slice (least to
// most significant) and the merge receives one column group per key.
func TestMergedSortMultiKeyPlanShape(t *testing.T) {
	q := "select l_orderkey, l_extendedprice from lineitem order by l_extendedprice desc, l_orderkey"
	plan := compileQuery(t, q, Options{Partitions: 4})
	if n := countInstrs(plan, "algebra.sortTail"); n != 8 {
		t.Errorf("sortTail count = %d, want 8 (2 keys x 4 slices)", n)
	}
	for _, in := range plan.Instrs {
		if in.Name() == "mat.kmerge" {
			if len(in.Args) != 1+2+2*4 {
				t.Errorf("kmerge has %d args, want 11 (nkeys + 2 asc + 2x4 cols)", len(in.Args))
			}
			if !in.Args[1].IsConst() || plan.Const(in.Args[1]).Bool { // first key desc
				t.Errorf("kmerge first asc flag = %v, want false", in.Args[1])
			}
			if !in.Args[2].IsConst() || !plan.Const(in.Args[2]).Bool { // second key asc
				t.Errorf("kmerge second asc flag = %v, want true", in.Args[2])
			}
		}
	}
}

// TestTopKFusionPlanShape: ORDER BY ... LIMIT truncates every sorted
// slice before the merge — one algebra.slice per column per slice plus
// the final global limit slices.
func TestTopKFusionPlanShape(t *testing.T) {
	q := "select l_orderkey, l_extendedprice from lineitem order by l_extendedprice desc limit 10"
	plan := compileQuery(t, q, Options{Partitions: 8})
	// 8 slices x 2 columns truncated + 2 final limit slices.
	if n := countInstrs(plan, "algebra.slice"); n != 18 {
		t.Errorf("algebra.slice count = %d, want 18 (per-slice top-k + global limit)", n)
	}
	if n := countInstrs(plan, "mat.kmerge"); n != 1 {
		t.Errorf("kmerge count = %d, want 1", n)
	}
	// Without the limit there is no per-slice truncation.
	noLimit := compileQuery(t, "select l_orderkey, l_extendedprice from lineitem order by l_extendedprice desc", Options{Partitions: 8})
	if n := countInstrs(noLimit, "algebra.slice"); n != 0 {
		t.Errorf("plain sort emitted %d algebra.slice instructions, want 0", n)
	}
	// A limit over a non-sort input is untouched by the fusion.
	plain := compileQuery(t, "select l_orderkey from lineitem limit 10", Options{Partitions: 8})
	if n := countInstrs(plain, "algebra.slice"); n != 1 {
		t.Errorf("plain limit slice count = %d, want 1", n)
	}
}

// TestConstantFoldingMatchesKernels: a folded constant is the value the
// engine's kernels compute, typed by the binder — int64 arithmetic
// stays exact at the edges of its range and beyond 2^53, and date
// arithmetic stays a date.
func TestConstantFoldingMatchesKernels(t *testing.T) {
	for _, c := range []struct{ q, want string }{
		{"select l_tax from lineitem where l_orderkey = 9223372036854775807 + 0", "batcalc.eq(X_1, 9223372036854775807)"},
		{"select l_tax from lineitem where l_orderkey = 9007199254740993 + 0", "batcalc.eq(X_1, 9007199254740993)"},
		{"select l_tax from lineitem where l_shipdate = date '1994-01-01' + 1", "batcalc.eq(X_2, date(8767))"},
	} {
		plan := compileQuery(t, c.q, Options{})
		var eqs []string
		for _, in := range plan.Instrs {
			if in.Name() == "batcalc.eq" {
				eqs = append(eqs, plan.StmtString(in))
			}
		}
		if len(eqs) != 1 || !strings.Contains(eqs[0], c.want) {
			t.Errorf("%s: lowered to %q, want one %s", c.q, eqs, c.want)
		}
	}
}
