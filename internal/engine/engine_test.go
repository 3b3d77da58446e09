package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"stethoscope/internal/algebra"
	"stethoscope/internal/compiler"
	"stethoscope/internal/mal"
	"stethoscope/internal/profiler"
	"stethoscope/internal/sql"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
)

var testCat = func() *storage.Catalog {
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.001, Seed: 11}); err != nil {
		panic(err)
	}
	return cat
}()

func compileQ(t testing.TB, q string, parts int) *mal.Plan {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	tree, err := algebra.Bind(stmt, testCat)
	if err != nil {
		t.Fatalf("Bind(%q): %v", q, err)
	}
	plan, err := compiler.Compile(tree, q, compiler.Options{Partitions: parts})
	if err != nil {
		t.Fatalf("Compile(%q): %v", q, err)
	}
	return plan
}

func runQ(t testing.TB, q string, opt Options, parts int) *Result {
	t.Helper()
	eng := New(testCat)
	res, err := eng.Run(compileQ(t, q, parts), opt)
	if err != nil {
		t.Fatalf("Run(%q): %v", q, err)
	}
	if res == nil {
		t.Fatalf("Run(%q): nil result", q)
	}
	return res
}

func TestPaperQueryExecution(t *testing.T) {
	res := runQ(t, "select l_tax from lineitem where l_partkey=1", Options{}, 1)
	if len(res.Names) != 1 || res.Names[0] != "l_tax" {
		t.Fatalf("names = %v", res.Names)
	}
	// Cross-check against direct storage access.
	pk, _ := testCat.Bind("sys", "lineitem", "l_partkey")
	tax, _ := testCat.Bind("sys", "lineitem", "l_tax")
	var want []float64
	for i := 0; i < pk.Len(); i++ {
		if pk.IntAt(i) == 1 {
			want = append(want, tax.FltAt(i))
		}
	}
	if res.Rows() != len(want) {
		t.Fatalf("rows = %d, want %d", res.Rows(), len(want))
	}
	for i, w := range want {
		if res.Cols[0].FltAt(i) != w {
			t.Errorf("row %d = %g, want %g", i, res.Cols[0].FltAt(i), w)
		}
	}
}

func TestPartitionedMatchesUnpartitioned(t *testing.T) {
	queries := []string{
		"select l_tax from lineitem where l_partkey=1",
		"select l_orderkey, l_quantity from lineitem where l_quantity > 25 and l_discount < 0.05",
		"select l_extendedprice from lineitem where l_shipdate between date '1994-01-01' and date '1995-01-01'",
	}
	for _, q := range queries {
		base := runQ(t, q, Options{}, 1)
		for _, parts := range []int{2, 7, 16} {
			part := runQ(t, q, Options{}, parts)
			if part.Rows() != base.Rows() {
				t.Fatalf("%q parts=%d: rows %d != %d", q, parts, part.Rows(), base.Rows())
			}
			for c := range base.Cols {
				for i := 0; i < base.Rows(); i++ {
					if !sameCell(base.Cols[c], part.Cols[c], i) {
						t.Fatalf("%q parts=%d: col %d row %d differs", q, parts, c, i)
					}
				}
			}
		}
	}
}

func TestDataflowMatchesSequential(t *testing.T) {
	queries := []string{
		"select l_tax from lineitem where l_partkey=1",
		"select l_returnflag, sum(l_quantity) as qty, count(*) as n from lineitem group by l_returnflag order by l_returnflag",
		"select o_totalprice, l_tax from orders join lineitem on l_orderkey = o_orderkey where l_quantity > 40 order by o_totalprice limit 10",
	}
	for _, q := range queries {
		seq := runQ(t, q, Options{Workers: 1}, 8)
		par := runQ(t, q, Options{Workers: 8}, 8)
		if seq.Rows() != par.Rows() {
			t.Fatalf("%q: rows %d != %d", q, seq.Rows(), par.Rows())
		}
		for c := range seq.Cols {
			for i := 0; i < seq.Rows(); i++ {
				if !sameCell(seq.Cols[c], par.Cols[c], i) {
					t.Fatalf("%q: col %d row %d differs between sequential and dataflow", q, c, i)
				}
			}
		}
	}
}

func sameCell(a, b *storage.BAT, i int) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case storage.Flt:
		return a.FltAt(i) == b.FltAt(i)
	case storage.Str:
		return a.StrAt(i) == b.StrAt(i)
	case storage.Bool:
		return a.BoolAt(i) == b.BoolAt(i)
	default:
		return a.IntAt(i) == b.IntAt(i)
	}
}

func TestGroupByAggregates(t *testing.T) {
	res := runQ(t,
		"select l_returnflag, sum(l_quantity) as qty, count(*) as n from lineitem group by l_returnflag order by l_returnflag",
		Options{}, 1)
	if res.Rows() == 0 || res.Rows() > 3 {
		t.Fatalf("rows = %d", res.Rows())
	}
	// Cross-check totals.
	rf, _ := testCat.Bind("sys", "lineitem", "l_returnflag")
	qty, _ := testCat.Bind("sys", "lineitem", "l_quantity")
	sums := map[string]float64{}
	counts := map[string]int64{}
	for i := 0; i < rf.Len(); i++ {
		sums[rf.StrAt(i)] += qty.FltAt(i)
		counts[rf.StrAt(i)]++
	}
	var prev string
	for i := 0; i < res.Rows(); i++ {
		flag := res.Cols[0].StrAt(i)
		if i > 0 && flag <= prev {
			t.Errorf("output not ordered: %q after %q", flag, prev)
		}
		prev = flag
		if got := res.Cols[1].FltAt(i); got != sums[flag] {
			t.Errorf("sum[%s] = %g, want %g", flag, got, sums[flag])
		}
		if got := res.Cols[2].IntAt(i); got != counts[flag] {
			t.Errorf("count[%s] = %d, want %d", flag, got, counts[flag])
		}
	}
}

func TestGlobalAggregates(t *testing.T) {
	res := runQ(t, "select count(*) as n, sum(l_quantity) as s, min(l_quantity) as mn, max(l_quantity) as mx, avg(l_quantity) as a from lineitem",
		Options{}, 1)
	if res.Rows() != 1 {
		t.Fatalf("rows = %d", res.Rows())
	}
	qty, _ := testCat.Bind("sys", "lineitem", "l_quantity")
	var sum, mn, mx float64
	mn = 1e18
	mx = -1e18
	for _, v := range qty.Flts() {
		sum += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if res.Cols[0].IntAt(0) != int64(qty.Len()) {
		t.Errorf("count = %d", res.Cols[0].IntAt(0))
	}
	if res.Cols[1].FltAt(0) != sum {
		t.Errorf("sum = %g, want %g", res.Cols[1].FltAt(0), sum)
	}
	if res.Cols[2].FltAt(0) != mn || res.Cols[3].FltAt(0) != mx {
		t.Errorf("min/max = %g/%g", res.Cols[2].FltAt(0), res.Cols[3].FltAt(0))
	}
	wantAvg := sum / float64(qty.Len())
	if got := res.Cols[4].FltAt(0); got < wantAvg-1e-9 || got > wantAvg+1e-9 {
		t.Errorf("avg = %g, want %g", got, wantAvg)
	}
}

func TestJoinExecution(t *testing.T) {
	res := runQ(t,
		"select o_orderkey, o_totalprice, l_quantity from orders join lineitem on l_orderkey = o_orderkey",
		Options{}, 1)
	li, _ := testCat.Table("sys", "lineitem")
	// Every lineitem row has a matching order, so the join has exactly
	// lineitem-many rows.
	if res.Rows() != li.Rows() {
		t.Fatalf("join rows = %d, want %d", res.Rows(), li.Rows())
	}
	// Spot-check alignment: o_orderkey must equal the l_orderkey of the
	// matching lineitem row everywhere; validate via order totalprice map.
	ok, _ := testCat.Bind("sys", "orders", "o_orderkey")
	op, _ := testCat.Bind("sys", "orders", "o_totalprice")
	prices := map[int64]float64{}
	for i := 0; i < ok.Len(); i++ {
		prices[ok.IntAt(i)] = op.FltAt(i)
	}
	for i := 0; i < res.Rows(); i++ {
		key := res.Cols[0].IntAt(i)
		if res.Cols[1].FltAt(i) != prices[key] {
			t.Fatalf("row %d: totalprice misaligned", i)
		}
	}
}

func TestDistinctExecution(t *testing.T) {
	res := runQ(t, "select distinct l_returnflag from lineitem order by l_returnflag", Options{}, 1)
	seen := map[string]bool{}
	for i := 0; i < res.Rows(); i++ {
		v := res.Cols[0].StrAt(i)
		if seen[v] {
			t.Fatalf("duplicate %q in distinct output", v)
		}
		seen[v] = true
	}
	rf, _ := testCat.Bind("sys", "lineitem", "l_returnflag")
	want := map[string]bool{}
	for _, v := range rf.Strs() {
		want[v] = true
	}
	if len(seen) != len(want) {
		t.Errorf("distinct count = %d, want %d", len(seen), len(want))
	}
}

func TestOrderByLimitExecution(t *testing.T) {
	res := runQ(t, "select l_extendedprice from lineitem order by l_extendedprice desc limit 5", Options{}, 1)
	if res.Rows() != 5 {
		t.Fatalf("rows = %d", res.Rows())
	}
	for i := 1; i < 5; i++ {
		if res.Cols[0].FltAt(i) > res.Cols[0].FltAt(i-1) {
			t.Errorf("not descending at %d", i)
		}
	}
	// Top value must be the true maximum.
	ep, _ := testCat.Bind("sys", "lineitem", "l_extendedprice")
	var mx float64
	for _, v := range ep.Flts() {
		if v > mx {
			mx = v
		}
	}
	if res.Cols[0].FltAt(0) != mx {
		t.Errorf("top = %g, want %g", res.Cols[0].FltAt(0), mx)
	}
}

func TestMultiKeySort(t *testing.T) {
	res := runQ(t, "select l_returnflag, l_quantity from lineitem order by l_returnflag, l_quantity desc limit 50", Options{}, 1)
	for i := 1; i < res.Rows(); i++ {
		f0, f1 := res.Cols[0].StrAt(i-1), res.Cols[0].StrAt(i)
		if f1 < f0 {
			t.Fatalf("primary key out of order at %d", i)
		}
		if f1 == f0 && res.Cols[1].FltAt(i) > res.Cols[1].FltAt(i-1) {
			t.Fatalf("secondary key out of order at %d", i)
		}
	}
}

func TestExpressionQuery(t *testing.T) {
	res := runQ(t, "select l_extendedprice * (1 - l_discount) as revenue from lineitem where l_partkey = 2", Options{}, 1)
	pk, _ := testCat.Bind("sys", "lineitem", "l_partkey")
	ep, _ := testCat.Bind("sys", "lineitem", "l_extendedprice")
	dc, _ := testCat.Bind("sys", "lineitem", "l_discount")
	var want []float64
	for i := 0; i < pk.Len(); i++ {
		if pk.IntAt(i) == 2 {
			want = append(want, ep.FltAt(i)*(1-dc.FltAt(i)))
		}
	}
	if res.Rows() != len(want) {
		t.Fatalf("rows = %d, want %d", res.Rows(), len(want))
	}
	for i, w := range want {
		if got := res.Cols[0].FltAt(i); got < w-1e-9 || got > w+1e-9 {
			t.Errorf("row %d = %g, want %g", i, got, w)
		}
	}
}

func TestDisjunctionQuery(t *testing.T) {
	res := runQ(t, "select l_orderkey from lineitem where l_quantity > 49 or l_discount > 0.09", Options{}, 1)
	qt, _ := testCat.Bind("sys", "lineitem", "l_quantity")
	dc, _ := testCat.Bind("sys", "lineitem", "l_discount")
	want := 0
	for i := 0; i < qt.Len(); i++ {
		if qt.FltAt(i) > 49 || dc.FltAt(i) > 0.09 {
			want++
		}
	}
	if res.Rows() != want {
		t.Errorf("rows = %d, want %d", res.Rows(), want)
	}
}

func TestProfilerEventsPairPerInstruction(t *testing.T) {
	sink := profiler.NewOwnedSliceSink(0)
	prof := profiler.New(sink)
	eng := New(testCat)
	plan := compileQ(t, "select l_tax from lineitem where l_partkey=1", 1)
	if _, err := eng.Run(plan, Options{Profiler: prof}); err != nil {
		t.Fatal(err)
	}
	evs := sink.Take()
	if len(evs) != 2*len(plan.Instrs) {
		t.Fatalf("events = %d, want %d", len(evs), 2*len(plan.Instrs))
	}
	// Sequential: strictly paired start/done per pc.
	for i := 0; i < len(evs); i += 2 {
		if evs[i].State != profiler.StateStart || evs[i+1].State != profiler.StateDone {
			t.Fatalf("event %d not a start/done pair", i)
		}
		if evs[i].PC != evs[i+1].PC {
			t.Fatalf("pair pc mismatch at %d", i)
		}
		if evs[i].Stmt == "" {
			t.Error("empty stmt field")
		}
	}
}

func TestDataflowUsesMultipleThreads(t *testing.T) {
	// Deterministic parallelism check: independent instructions that each
	// take a few milliseconds must be spread over the worker pool.
	sink := profiler.NewOwnedSliceSink(0)
	prof := profiler.New(sink)
	eng := New(testCat)
	eng.Register("test", "work", func(ctx *Context, in *mal.Instr) error {
		time.Sleep(3 * time.Millisecond)
		ctx.setVal(in, 0, mal.Int64(1))
		return nil
	})
	p := mal.NewPlan("")
	for i := 0; i < 16; i++ {
		p.Emit1("test", "work", mal.TInt)
	}
	if _, err := eng.Run(p, Options{Workers: 4, Profiler: prof}); err != nil {
		t.Fatal(err)
	}
	threads := map[int]bool{}
	for _, e := range sink.Take() {
		threads[e.Thread] = true
	}
	if len(threads) < 2 {
		t.Errorf("dataflow used %d threads, want >= 2", len(threads))
	}
}

func TestSequentialUsesOneThread(t *testing.T) {
	sink := profiler.NewOwnedSliceSink(0)
	prof := profiler.New(sink)
	eng := New(testCat)
	plan := compileQ(t, "select l_tax from lineitem where l_partkey=1", 8)
	if _, err := eng.Run(plan, Options{Workers: 1, Profiler: prof}); err != nil {
		t.Fatal(err)
	}
	for _, e := range sink.Take() {
		if e.Thread != 0 {
			t.Fatalf("sequential run on thread %d", e.Thread)
		}
	}
}

func TestUnknownOperatorFails(t *testing.T) {
	p := mal.NewPlan("")
	p.Emit1("nosuch", "op", mal.TInt)
	eng := New(testCat)
	if _, err := eng.Run(p, Options{}); err == nil {
		t.Fatal("unknown operator accepted")
	}
}

// TestRegisterRejectsDuplicate: a second registration of an opcode
// panics instead of silently replacing the first kernel, and Replace is
// the one way to swap a kernel.
func TestRegisterRejectsDuplicate(t *testing.T) {
	eng := New(testCat)
	for _, op := range [][2]string{{"aggr", "subcount"}, {"querylog", "define"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("second Register of %s.%s did not panic", op[0], op[1])
				}
			}()
			eng.Register(op[0], op[1], kNop)
		}()
	}
	eng.Register("test", "once", kNop)
	if old := eng.Replace("aggr", "subcount", kNop); old == nil {
		t.Error("Replace returned no previous kernel")
	}
}

func TestKernelErrorPropagatesInDataflow(t *testing.T) {
	eng := New(testCat)
	boom := errors.New("boom")
	eng.Register("test", "fail", func(ctx *Context, in *mal.Instr) error { return boom })
	eng.Register("test", "ok", func(ctx *Context, in *mal.Instr) error {
		ctx.setVal(in, 0, mal.Int64(1))
		return nil
	})
	p := mal.NewPlan("")
	a := p.Emit1("test", "ok", mal.TInt)
	p.Emit1("test", "fail", mal.TInt, mal.VarArg(a))
	p.Emit1("test", "ok2", mal.TInt) // unknown op, but failure should hit first or be reported
	eng.Register("test", "ok2", func(ctx *Context, in *mal.Instr) error {
		ctx.setVal(in, 0, mal.Int64(2))
		return nil
	})
	_, err := eng.Run(p, Options{Workers: 4})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestRunInvalidPlanRejected(t *testing.T) {
	p := mal.NewPlan("")
	v := p.NewVar(mal.TBATInt)
	p.Emit1("algebra", "selectTrue", mal.TBATOID, mal.VarArg(v))
	eng := New(testCat)
	if _, err := eng.Run(p, Options{}); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

func TestAccountingFields(t *testing.T) {
	sink := profiler.NewOwnedSliceSink(0)
	prof := profiler.New(sink)
	eng := New(testCat)
	plan := compileQ(t, "select l_tax from lineitem where l_partkey=1", 1)
	if _, err := eng.Run(plan, Options{Profiler: prof}); err != nil {
		t.Fatal(err)
	}
	li, _ := testCat.Table("sys", "lineitem")
	sawBindWrite := false
	for _, e := range sink.Take() {
		if e.State == profiler.StateDone && e.Writes == int64(li.Rows()) {
			sawBindWrite = true
		}
	}
	if !sawBindWrite {
		t.Error("no done event accounts for a full-column bind write")
	}
}

func TestManyWorkersSmallPlan(t *testing.T) {
	// More workers than instructions must not deadlock.
	res := runQ(t, "select l_tax from lineitem where l_partkey=1", Options{Workers: 32}, 1)
	if res == nil {
		t.Fatal("nil result")
	}
}

func TestCountColumnForm(t *testing.T) {
	res := runQ(t, "select l_returnflag, count(l_quantity) as n from lineitem group by l_returnflag", Options{}, 1)
	var total int64
	for i := 0; i < res.Rows(); i++ {
		total += res.Cols[1].IntAt(i)
	}
	rf, _ := testCat.Bind("sys", "lineitem", "l_returnflag")
	if total != int64(rf.Len()) {
		t.Errorf("counts sum to %d, want %d", total, rf.Len())
	}
}

func ExampleEngine_Run() {
	cat := storage.NewCatalog()
	cat.Define("sys", "t",
		[]storage.Column{{Name: "x", Kind: storage.Int}},
		map[string]*storage.BAT{"x": storage.FromInts(storage.Int, []int64{3, 1, 2})})
	stmt, _ := sql.Parse("select x from t order by x")
	tree, _ := algebra.Bind(stmt, cat)
	plan, _ := compiler.Compile(tree, stmt.Text, compiler.Options{})
	res, _ := New(cat).Run(plan, Options{})
	for i := 0; i < res.Rows(); i++ {
		fmt.Println(res.Cols[0].IntAt(i))
	}
	// Output:
	// 1
	// 2
	// 3
}

func TestLikeQueryExecution(t *testing.T) {
	res := runQ(t, "select p_partkey from part where p_type like 'PROMO%'", Options{}, 1)
	pt, _ := testCat.Bind("sys", "part", "p_type")
	want := 0
	for _, v := range pt.Strs() {
		if len(v) >= 5 && v[:5] == "PROMO" {
			want++
		}
	}
	if res.Rows() != want {
		t.Errorf("like rows = %d, want %d", res.Rows(), want)
	}
	// Negated form is the complement.
	neg := runQ(t, "select p_partkey from part where p_type not like 'PROMO%'", Options{}, 1)
	if res.Rows()+neg.Rows() != pt.Len() {
		t.Errorf("like + not like = %d, want %d", res.Rows()+neg.Rows(), pt.Len())
	}
}

func TestInListExecution(t *testing.T) {
	res := runQ(t, "select l_orderkey from lineitem where l_shipmode in ('MAIL', 'SHIP')", Options{}, 1)
	sm, _ := testCat.Bind("sys", "lineitem", "l_shipmode")
	want := 0
	for _, v := range sm.Strs() {
		if v == "MAIL" || v == "SHIP" {
			want++
		}
	}
	if res.Rows() != want {
		t.Errorf("in rows = %d, want %d", res.Rows(), want)
	}
	neg := runQ(t, "select l_orderkey from lineitem where l_shipmode not in ('MAIL', 'SHIP')", Options{}, 1)
	if res.Rows()+neg.Rows() != sm.Len() {
		t.Errorf("in + not in = %d, want %d", res.Rows()+neg.Rows(), sm.Len())
	}
}

// TestConcurrentRunsShareEngineAndPlan exercises the reentrancy
// contract: one engine executes one shared plan from many goroutines at
// once (sequential and dataflow interleaved) while a test kernel is
// re-registered, and every run must produce the same result. Run under
// -race this is the engine-level half of the serving-layer guarantee.
func TestConcurrentRunsShareEngineAndPlan(t *testing.T) {
	eng := New(testCat)
	plan := compileQ(t, "select l_tax from lineitem where l_partkey=1", 4)
	want, err := eng.Run(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				workers := 1
				if (g+i)%2 == 1 {
					workers = 4
				}
				sink := profiler.NewOwnedSliceSink(0)
				res, err := eng.Run(plan, Options{Workers: workers, Profiler: profiler.New(sink)})
				if err != nil {
					errs <- err
					return
				}
				if res.Rows() != want.Rows() {
					errs <- fmt.Errorf("run got %d rows, want %d", res.Rows(), want.Rows())
					return
				}
				if n := len(sink.Take()); n != 2*len(plan.Instrs) {
					errs <- fmt.Errorf("trace has %d events, want %d", n, 2*len(plan.Instrs))
					return
				}
			}
		}(g)
	}
	// Concurrent fault-injection-style kernel swaps must not race with
	// the executing goroutines.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 32; i++ {
			eng.Replace("querylog", "define", kNop)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWorkStealingSpreadsFanOut forces the fan-out case the per-worker
// deques must handle: one producer unblocks many consumers at once, all
// of which land on the finisher's own deque — the other workers only
// get work by stealing it.
func TestWorkStealingSpreadsFanOut(t *testing.T) {
	sink := profiler.NewOwnedSliceSink(0)
	prof := profiler.New(sink)
	eng := New(testCat)
	eng.Register("test", "seed", func(ctx *Context, in *mal.Instr) error {
		ctx.setVal(in, 0, mal.Int64(1))
		return nil
	})
	eng.Register("test", "work", func(ctx *Context, in *mal.Instr) error {
		time.Sleep(2 * time.Millisecond)
		ctx.setVal(in, 0, mal.Int64(1))
		return nil
	})
	p := mal.NewPlan("")
	seed := p.Emit1("test", "seed", mal.TInt)
	for i := 0; i < 16; i++ {
		p.Emit1("test", "work", mal.TInt, mal.VarArg(seed))
	}
	if _, err := eng.Run(p, Options{Workers: 4, Profiler: prof}); err != nil {
		t.Fatal(err)
	}
	threads := map[int]bool{}
	for _, e := range sink.Take() {
		threads[e.Thread] = true
	}
	if len(threads) < 2 {
		t.Errorf("fan-out executed on %d threads, want >= 2 (stealing failed)", len(threads))
	}
}

// TestDataflowCancelMidRun cancels while instructions are executing:
// the scheduler must stop dispatching, return the cancellation error,
// and leave no goroutine behind.
func TestDataflowCancelMidRun(t *testing.T) {
	eng := New(testCat)
	started := make(chan struct{}, 64)
	eng.Register("test", "slow", func(ctx *Context, in *mal.Instr) error {
		select {
		case started <- struct{}{}:
		default:
		}
		time.Sleep(time.Millisecond)
		ctx.setVal(in, 0, mal.Int64(1))
		return nil
	})
	p := mal.NewPlan("")
	prev := p.Emit1("test", "slow", mal.TInt)
	for i := 0; i < 63; i++ {
		prev = p.Emit1("test", "slow", mal.TInt, mal.VarArg(prev))
	}
	cctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := eng.RunContext(cctx, p, Options{Workers: 4})
		errc <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled dataflow run did not return")
	}
}

// TestDataflowWideMitosisPlan runs a genuinely wide partitioned
// aggregate plan through the scheduler at several worker counts and
// checks the results agree with sequential execution.
func TestDataflowWideMitosisPlan(t *testing.T) {
	q := "select l_returnflag, sum(l_quantity) as s, count(*) as n from lineitem where l_quantity > 10 group by l_returnflag order by l_returnflag"
	plan := compileQ(t, q, 16)
	eng := New(testCat)
	seq, err := eng.Run(plan, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 32} {
		par, err := eng.Run(plan, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Rows() != seq.Rows() {
			t.Fatalf("workers=%d: rows %d != %d", workers, par.Rows(), seq.Rows())
		}
		for c := range seq.Cols {
			for i := 0; i < seq.Rows(); i++ {
				if !sameCell(seq.Cols[c], par.Cols[c], i) {
					t.Fatalf("workers=%d: col %d row %d differs", workers, c, i)
				}
			}
		}
	}
}
