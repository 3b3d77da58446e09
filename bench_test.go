// Experiment harness: one benchmark and one assertion test per paper
// figure and claim. The paper is a demo paper without numbered tables,
// so the experiment set (F1-F4 for the figures, E5-E11 for the checkable
// claims and demo features) is defined in DESIGN.md §4.
package stethoscope

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"stethoscope/internal/algebra"
	"stethoscope/internal/compiler"
	"stethoscope/internal/core"
	"stethoscope/internal/dot"
	"stethoscope/internal/engine"
	"stethoscope/internal/layout"
	"stethoscope/internal/mal"
	"stethoscope/internal/netproto"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/profiler"
	"stethoscope/internal/sql"
	"stethoscope/internal/storage"
	"stethoscope/internal/svg"
	"stethoscope/internal/tpch"
	"stethoscope/internal/trace"
	"stethoscope/internal/tracestore"
	"stethoscope/internal/zvtm"
)

// paperQuery is the exact query of the paper's Figure 1.
const paperQuery = "select l_tax from lineitem where l_partkey=1"

// largeQuery at 64 partitions produces the >1000-node graph of Figure 2.
const largeQuery = `select l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice, l_discount, l_tax, l_shipdate
	from lineitem where l_quantity > 10 and l_discount < 0.05`

var benchCat = func() *storage.Catalog {
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.005, Seed: 42}); err != nil {
		panic(err)
	}
	return cat
}()

func mustCompile(tb testing.TB, query string, partitions int) *mal.Plan {
	tb.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := algebra.Bind(stmt, benchCat)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := compiler.Compile(tree, stmt.Text, compiler.Options{Partitions: partitions})
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

func mustTrace(tb testing.TB, plan *mal.Plan, workers int) *trace.Store {
	tb.Helper()
	sink := profiler.NewOwnedSliceSink(0)
	prof := profiler.New(sink)
	if _, err := engine.New(benchCat).Run(plan, engine.Options{Workers: workers, Profiler: prof}); err != nil {
		tb.Fatal(err)
	}
	return trace.FromEvents(sink.Take())
}

// --- F1: Figure 1, the MAL plan of the paper's example query ---------

func TestF1PlanShape(t *testing.T) {
	plan := mustCompile(t, paperQuery, 1)
	listing := plan.String()
	// The plan must carry the query and lower to the bind/select/project
	// chain of the figure.
	for _, want := range []string{
		"# " + paperQuery,
		`sql.bind("sys", "lineitem", "l_partkey", 0)`,
		`algebra.thetaselect(`,
		`sql.bind("sys", "lineitem", "l_tax", 0)`,
		`algebra.leftjoin(`,
		"sql.resultSet",
	} {
		if !strings.Contains(listing, want) {
			t.Errorf("F1 plan missing %q:\n%s", want, listing)
		}
	}
	// And execute correctly.
	res, err := engine.New(benchCat).Run(plan, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() == 0 {
		t.Error("F1 query returned no rows")
	}
}

func BenchmarkF1PlanGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stmt, _ := sql.Parse(paperQuery)
		tree, _ := algebra.Bind(stmt, benchCat)
		if _, err := compiler.Compile(tree, stmt.Text, compiler.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F2: Figure 2 + claim #5, graphs beyond 1000 nodes ----------------

func TestF2Over1000Nodes(t *testing.T) {
	plan := mustCompile(t, largeQuery, 64)
	g := dot.Export(plan)
	if len(g.Nodes) <= 1000 {
		t.Fatalf("F2 graph has %d nodes, want > 1000", len(g.Nodes))
	}
	lay, err := layout.Compute(g, layout.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.Rects) != len(g.Nodes) {
		t.Fatalf("laid out %d of %d nodes", len(lay.Rects), len(g.Nodes))
	}
	rendered, err := svg.RenderString(g, lay, nil, svg.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := svg.ParseString(rendered)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := zvtm.FromSVG("f2", doc)
	if err != nil {
		t.Fatal(err)
	}
	if vs.CountKind(zvtm.ShapeGlyph) != len(g.Nodes) {
		t.Errorf("glyphs = %d, want %d", vs.CountKind(zvtm.ShapeGlyph), len(g.Nodes))
	}
}

// BenchmarkF2LargeGraph measures the full pipeline (compile → dot →
// layout → svg → glyphs) at the >1000-node scale.
func BenchmarkF2LargeGraph(b *testing.B) {
	plan := mustCompile(b, largeQuery, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := dot.Export(plan)
		lay, err := layout.Compute(g, layout.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svg.RenderString(g, lay, nil, svg.DefaultStyle()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2LayoutScaling sweeps the node count to back the interactive-
// scale claim (ablation: layout cost vs graph size).
func BenchmarkF2LayoutScaling(b *testing.B) {
	for _, parts := range []int{1, 8, 32, 64} {
		plan := mustCompile(b, largeQuery, parts)
		g := dot.Export(plan)
		b.Run(fmt.Sprintf("nodes=%d", len(g.Nodes)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := layout.Compute(g, layout.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- F3: Figure 3, the execution trace -------------------------------

func TestF3TraceRoundTrip(t *testing.T) {
	plan := mustCompile(t, paperQuery, 1)
	sink := profiler.NewOwnedSliceSink(0)
	if _, err := engine.New(benchCat).Run(plan, engine.Options{Profiler: profiler.New(sink)}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := trace.Write(&sb, sink.Take()); err != nil {
		t.Fatal(err)
	}
	st, err := trace.LoadString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	// Two events (start + done) per instruction, per §3.3.
	if st.Len() != 2*len(plan.Instrs) {
		t.Fatalf("trace has %d events, want %d", st.Len(), 2*len(plan.Instrs))
	}
	// The pc ↔ node mapping is complete with matching labels.
	m := trace.MapToGraph(st, dot.Export(plan))
	if !m.Complete() {
		t.Fatalf("mapping incomplete: %+v", m)
	}
}

func BenchmarkF3TraceGeneration(b *testing.B) {
	plan := mustCompile(b, paperQuery, 1)
	eng := engine.New(benchCat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := profiler.NewOwnedSliceSink(0)
		if _, err := eng.Run(plan, engine.Options{Profiler: profiler.New(sink)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F4: Figure 4, the display window --------------------------------

func TestF4ColoredRender(t *testing.T) {
	plan := mustCompile(t, paperQuery, 1)
	st := mustTrace(t, plan, 1)
	sess, err := core.NewSession(dot.Export(plan), st, core.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Replay to a midpoint: some nodes done (green), the one in flight
	// red.
	if err := sess.Replay.SeekTo(st.Len()/2 + 1); err != nil {
		t.Fatal(err)
	}
	out, err := sess.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, string(core.ColorGreen)) {
		t.Error("F4 render missing done (green) state")
	}
	if !strings.Contains(out, string(core.ColorRed)) {
		t.Error("F4 render missing running (red) state")
	}
}

func BenchmarkF4DisplayRender(b *testing.B) {
	plan := mustCompile(b, paperQuery, 1)
	st := mustTrace(b, plan, 1)
	sess, err := core.NewSession(dot.Export(plan), st, core.SessionOptions{})
	if err != nil {
		b.Fatal(err)
	}
	sess.Replay.FastForward(st.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.RenderSVG(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: §4.2.1 pair-elision worked example ---------------------------
// (Correctness is asserted in internal/core's TestE5PairElisionPaperExample;
// here we measure the algorithm at buffer scale.)

func BenchmarkE5Coloring(b *testing.B) {
	// A realistic mixed buffer: mostly fast pairs with occasional
	// long-runners.
	var buf []profiler.Event
	for i := 0; i < 2048; i++ {
		pc := i % 512
		buf = append(buf, profiler.Event{Seq: int64(2 * i), State: profiler.StateStart, PC: pc})
		if i%17 != 0 {
			buf = append(buf, profiler.Event{Seq: int64(2*i + 1), State: profiler.StateDone, PC: pc})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PairElision(buf)
	}
}

// --- E6: the 150 ms render-queue dispatch ceiling ---------------------

// e6Space is a glyph space of n unplaced nodes.
func e6Space(tb testing.TB, n int) *zvtm.VirtualSpace {
	vs, err := zvtm.FromSVG("e6", &svg.Doc{Nodes: make([]svg.NodeBox, n)})
	if err != nil {
		tb.Fatal(err)
	}
	return vs
}

func TestE6DispatchDelayCeiling(t *testing.T) {
	q := zvtm.NewRenderQueue(e6Space(t, 64), 0) // paper default: 150 ms
	t0 := time.Unix(0, 0)
	for i := 0; i < 64; i++ {
		q.Enqueue(i, "#e03131", t0)
	}
	q.Flush(t0.Add(time.Minute))
	delays := q.InterRenderDelays()
	if len(delays) != 63 {
		t.Fatalf("dispatches = %d", len(delays)+1)
	}
	for _, d := range delays {
		if d > zvtm.DefaultDispatchDelay {
			t.Fatalf("inter-render delay %v exceeds the paper's 150ms ceiling", d)
		}
	}
}

func BenchmarkE6RenderQueue(b *testing.B) {
	q := zvtm.NewRenderQueue(e6Space(b, 1), time.Microsecond)
	t0 := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(0, "#2f9e44", t0.Add(time.Duration(i)))
		q.Flush(t0.Add(time.Duration(i) + time.Millisecond))
	}
}

// --- E7: multi-core utilization and the sequential anomaly ------------

func TestE7SequentialAnomaly(t *testing.T) {
	// Per-instruction work must be large enough that the worker pool is
	// observably busy; use a heavier catalog than the other experiments.
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.05, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse(largeQuery)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := algebra.Bind(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compiler.Compile(tree, stmt.Text, compiler.Options{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	runOn := func(workers int) core.Utilization {
		sink := profiler.NewOwnedSliceSink(0)
		if _, err := engine.New(cat).Run(plan, engine.Options{Workers: workers, Profiler: profiler.New(sink)}); err != nil {
			t.Fatal(err)
		}
		return core.Utilize(trace.FromEvents(sink.Take()))
	}
	seq := runOn(1)
	if seq.Threads != 1 {
		t.Fatalf("sequential run used %d threads", seq.Threads)
	}
	if !core.SequentialAnomaly(seq, 8) {
		t.Error("sequential anomaly not flagged")
	}
	// On one processor the first worker can drain the whole plan before
	// the scheduler runs another (7 of 20 runs did at PR 20), so retry
	// until one run spreads; a pool that never spreads still fails.
	var par core.Utilization
	for attempt := 0; attempt < 20; attempt++ {
		if par = runOn(8); par.Threads >= 2 {
			break
		}
	}
	if par.Threads < 2 {
		t.Fatalf("parallel run used %d threads", par.Threads)
	}
	if core.SequentialAnomaly(par, 8) {
		t.Error("parallel run falsely flagged")
	}
}

func BenchmarkE7Utilization(b *testing.B) {
	plan := mustCompile(b, largeQuery, 16)
	st := mustTrace(b, plan, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Utilize(st)
	}
}

// e7Cat is the heavier catalog used by the worker sweep: per-instruction
// work must exceed the scheduler's wakeup latency for parallel speedup to
// be observable.
var e7Cat = func() func() *storage.Catalog {
	var cat *storage.Catalog
	return func() *storage.Catalog {
		if cat == nil {
			cat = storage.NewCatalog()
			if err := tpch.Load(cat, tpch.Config{SF: 0.05, Seed: 42}); err != nil {
				panic(err)
			}
		}
		return cat
	}
}()

// BenchmarkE7WorkerSweep is the ablation for the dataflow scheduler:
// execution wall time at increasing worker counts on a 16-partition plan
// over ~300k lineitem rows.
func BenchmarkE7WorkerSweep(b *testing.B) {
	cat := e7Cat()
	stmt, _ := sql.Parse(largeQuery)
	tree, err := algebra.Bind(stmt, cat)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := compiler.Compile(tree, stmt.Text, compiler.Options{Partitions: 16})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(cat)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(plan, engine.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: UDP streaming to the textual Stethoscope ---------------------

func BenchmarkE8UDPStream(b *testing.B) {
	received := make(chan struct{}, 1<<20)
	l, err := netproto.Listen("127.0.0.1:0", func(from string, m netproto.Msg) {
		received <- struct{}{}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	s, err := netproto.Dial(l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	e := profiler.Event{Seq: 1, State: profiler.StateDone, PC: 3, DurUs: 120,
		Stmt: `X_5:bat[:oid] := algebra.thetaselect(X_1, "=", 1);`}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Emit(e)
	}
	b.StopTimer()
	// Drain what arrived (UDP may drop; throughput is the send side).
	// Datagrams can still be in flight through the loopback stack when
	// StopTimer runs, so drain with a short idle deadline — a bare
	// default: would exit while packets are still arriving and
	// undercount receipts.
	for {
		select {
		case <-received:
		case <-time.After(50 * time.Millisecond):
			return
		}
	}
}

// BenchmarkE8UDPStreamBatched is the coalesced counterpart: events
// leave through a Batcher and multi-event EVTB datagrams — one syscall
// per batch instead of per event.
func BenchmarkE8UDPStreamBatched(b *testing.B) {
	received := make(chan struct{}, 1<<20)
	l, err := netproto.Listen("127.0.0.1:0", func(from string, m netproto.Msg) {
		received <- struct{}{}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	s, err := netproto.Dial(l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	batcher := profiler.NewBatcher(s, 64, 0)
	defer batcher.Close()
	e := profiler.Event{Seq: 1, State: profiler.StateDone, PC: 3, DurUs: 120,
		Stmt: `X_5:bat[:oid] := algebra.thetaselect(X_1, "=", 1);`}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batcher.Emit(e)
	}
	batcher.Flush()
	b.StopTimer()
	for {
		select {
		case <-received:
		case <-time.After(50 * time.Millisecond):
			return
		}
	}
}

// --- E9: replay controls ----------------------------------------------

func BenchmarkE9Replay(b *testing.B) {
	plan := mustCompile(b, largeQuery, 8)
	st := mustTrace(b, plan, 4)
	sess, err := core.NewSession(dot.Export(plan), st, core.SessionOptions{DispatchDelay: time.Nanosecond})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Replay.FastForward(st.Len())
		sess.Replay.Rewind(st.Len())
	}
}

// --- E10: threshold vs pair-elision coloring --------------------------

func TestE10ThresholdFindsWhatPairElisionFinds(t *testing.T) {
	// A trace where pc=9 runs 100x longer than everything else.
	var buf []profiler.Event
	clk := int64(0)
	seq := int64(0)
	emit := func(pc int, dur int64) {
		buf = append(buf, profiler.Event{Seq: seq, State: profiler.StateStart, PC: pc, ClkUs: clk})
		seq++
		clk += dur
		buf = append(buf, profiler.Event{Seq: seq, State: profiler.StateDone, PC: pc, ClkUs: clk, DurUs: dur})
		seq++
	}
	for pc := 0; pc < 9; pc++ {
		emit(pc, 10)
	}
	emit(9, 1000)
	th := core.Threshold(buf, 500)
	if len(th) != 1 || th[9] != core.ColorGreen {
		t.Errorf("threshold = %v", th)
	}
	// Pair-elision cannot flag it (the pair is adjacent) — that is the
	// documented trade-off between the two algorithms: pair-elision
	// detects blocking concurrency patterns, threshold detects absolute
	// cost.
	pe := core.PairElision(buf)
	if len(pe) != 0 {
		t.Errorf("pair elision on adjacent pairs = %v", pe)
	}
}

func BenchmarkE10Threshold(b *testing.B) {
	plan := mustCompile(b, largeQuery, 16)
	st := mustTrace(b, plan, 4)
	evs := st.Events()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Threshold(evs, 100)
	}
}

// --- E11: future-work features: gradient coloring + plan pruning ------

func TestE11GradientAndPruning(t *testing.T) {
	plan := mustCompile(t, paperQuery, 1)
	st := mustTrace(t, plan, 1)
	coloring, stops := core.Gradient(st.Events())
	if len(coloring) == 0 || len(stops) == 0 {
		t.Fatal("gradient produced nothing")
	}
	// Legend is sorted by decreasing duration.
	for i := 1; i < len(stops); i++ {
		if stops[i].DurUs > stops[i-1].DurUs {
			t.Fatal("gradient legend out of order")
		}
	}

	// Pruning removes the administrative prologue/epilogue.
	pruned, remap := mal.Prune(plan)
	if len(pruned.Instrs) >= len(plan.Instrs) {
		t.Fatalf("pruning removed nothing: %d -> %d", len(plan.Instrs), len(pruned.Instrs))
	}
	for _, in := range pruned.Instrs {
		if in.Module() == "querylog" {
			t.Error("admin instruction survived pruning")
		}
	}
	// Remapped trace events still land on valid pruned nodes.
	g := dot.Export(pruned)
	for oldPC, newPC := range remap {
		if _, ok := g.PCNode(newPC); !ok {
			t.Errorf("remap %d->%d points at missing node", oldPC, newPC)
		}
	}
}

func BenchmarkE11Pruning(b *testing.B) {
	plan := mustCompile(b, largeQuery, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mal.Prune(plan)
	}
}

// --- Serving layer: plan cache and concurrent clients -----------------

// cacheBenchQuery is compile-heavy relative to its optimized plan: the
// 32 identical revenue expressions lower to 32 instruction chains
// per partition, which CSE then collapses to one. A cold Exec pays for
// compiling and optimizing all of them on every call; a cached Exec
// runs only the deduplicated plan. This is the workload shape a plan
// cache exists for (think prepared statements hammered by many clients).
const cacheBenchQuery = `select l_orderkey,
	l_extendedprice * (1 - l_discount) as r1,
	l_extendedprice * (1 - l_discount) as r2,
	l_extendedprice * (1 - l_discount) as r3,
	l_extendedprice * (1 - l_discount) as r4,
	l_extendedprice * (1 - l_discount) as r5,
	l_extendedprice * (1 - l_discount) as r6,
	l_extendedprice * (1 - l_discount) as r7,
	l_extendedprice * (1 - l_discount) as r8,
	l_extendedprice * (1 - l_discount) as r9,
	l_extendedprice * (1 - l_discount) as r10,
	l_extendedprice * (1 - l_discount) as r11,
	l_extendedprice * (1 - l_discount) as r12,
	l_extendedprice * (1 - l_discount) as r13,
	l_extendedprice * (1 - l_discount) as r14,
	l_extendedprice * (1 - l_discount) as r15,
	l_extendedprice * (1 - l_discount) as r16,
	l_extendedprice * (1 - l_discount) as r17,
	l_extendedprice * (1 - l_discount) as r18,
	l_extendedprice * (1 - l_discount) as r19,
	l_extendedprice * (1 - l_discount) as r20,
	l_extendedprice * (1 - l_discount) as r21,
	l_extendedprice * (1 - l_discount) as r22,
	l_extendedprice * (1 - l_discount) as r23,
	l_extendedprice * (1 - l_discount) as r24,
	l_extendedprice * (1 - l_discount) as r25,
	l_extendedprice * (1 - l_discount) as r26,
	l_extendedprice * (1 - l_discount) as r27,
	l_extendedprice * (1 - l_discount) as r28,
	l_extendedprice * (1 - l_discount) as r29,
	l_extendedprice * (1 - l_discount) as r30,
	l_extendedprice * (1 - l_discount) as r31,
	l_extendedprice * (1 - l_discount) as r32
	from lineitem where l_quantity > 48 and l_discount < 0.05`

// BenchmarkPlanCacheHit compares one Exec that compiles from scratch
// against one that serves the optimized plan from the shared cache,
// at 128-way mitosis: the cached variant skips the whole
// parse → bind → compile → optimize chain and must be at least
// ~5× faster. Both variants run with the durable query history
// enabled, pinning that the teed store sink does not erode the cache
// advantage.
func BenchmarkPlanCacheHit(b *testing.B) {
	ctx := context.Background()
	open := func(b *testing.B) *DB {
		db, err := Open(WithScaleFactor(0.001), WithHistory(b.TempDir()))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.Close() })
		return db
	}
	b.Run("cold", func(b *testing.B) {
		db := open(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Every iteration's statement text is new, so every Exec
			// misses the plan cache; discounts are whole cents, so each
			// bound in (0.04, 0.05) selects the rows "< 0.05" does.
			q := strings.Replace(cacheBenchQuery, "l_discount < 0.05", fmt.Sprintf("l_discount < 0.04%d", i+1), 1)
			res, err := db.Exec(ctx, q, ExecPartitions(128))
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.CacheHit {
				b.Fatal("a cold Exec hit the plan cache")
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		db := open(b)
		if _, err := db.Exec(ctx, cacheBenchQuery, ExecPartitions(128)); err != nil {
			b.Fatal(err) // warm the cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Exec(ctx, cacheBenchQuery, ExecPartitions(128))
			if err != nil {
				b.Fatal(err)
			}
			if !res.Stats.CacheHit {
				b.Fatal("expected a plan-cache hit")
			}
		}
	})
}

// BenchmarkConcurrentExec measures serving throughput at increasing
// client parallelism: N goroutines drain a shared work queue of b.N
// queries against one DB (shared engine, shared plan cache). ns/op is
// wall time per completed query, so a multi-core runner should show
// clients=16 completing more queries per second than clients=1.
func BenchmarkConcurrentExec(b *testing.B) {
	db, err := Open(WithScaleFactor(0.005))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	queries := []string{
		paperQuery,
		"select l_orderkey from lineitem where l_quantity > 30",
		"select count(*) from lineitem",
	}
	for _, q := range queries {
		if _, err := db.Exec(ctx, q); err != nil {
			b.Fatal(err) // warm the plan cache
		}
	}
	for _, clients := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			jobs := make(chan int)
			errs := make(chan error, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range jobs {
						if _, err := db.Exec(ctx, queries[i%len(queries)]); err != nil {
							select {
							case errs <- err:
							default:
							}
						}
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jobs <- i
			}
			close(jobs)
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errs:
				b.Fatal(err)
			default:
			}
		})
	}
}

// --- Query history: the durable trace store ---------------------------

// historyBenchEvents is a realistic 256-event batch (start/done pairs
// with MAL statement text) reused across append iterations.
var historyBenchEvents = func() []profiler.Event {
	evs := make([]profiler.Event, 0, 256)
	for i := 0; i < 128; i++ {
		stmt := fmt.Sprintf(`X_%d:bat[:oid] := algebra.thetaselect(X_1, "=", %d);`, i, i)
		evs = append(evs,
			profiler.Event{Seq: int64(2 * i), State: profiler.StateStart, PC: i, ClkUs: int64(10 * i), Stmt: stmt},
			profiler.Event{Seq: int64(2*i + 1), State: profiler.StateDone, PC: i, ClkUs: int64(10*i + 9),
				DurUs: 9, RSSKB: 128, Reads: 1000, Writes: 100, Stmt: stmt})
	}
	return evs
}()

// BenchmarkHistoryAppend measures the history write path: whole runs
// of 256 events written by Store.Record, exactly as the run service
// records every finished run. ns/op is per event; the store must
// sustain >= 100k events/sec (the companion assertion lives in
// internal/tracestore's TestAppendThroughput).
func BenchmarkHistoryAppend(b *testing.B) {
	st, err := tracestore.Open(tracestore.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	meta := tracestore.RunMeta{SQL: cacheBenchQuery, Instructions: 128}
	evs := historyBenchEvents
	b.ResetTimer()
	for i := 0; i < b.N; i += len(evs) {
		if _, err := st.Record(meta, evs[:min(len(evs), b.N-i)], tracestore.RunStats{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkHistoryTopN measures the aggregation layer over a populated
// store: ranking 256 recorded runs per iteration.
func BenchmarkHistoryTopN(b *testing.B) {
	st, err := tracestore.Open(tracestore.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 256; i++ {
		if _, err := st.Record(tracestore.RunMeta{SQL: fmt.Sprintf("select %d", i), Instructions: 128},
			historyBenchEvents, tracestore.RunStats{ElapsedUs: int64((i * 7919) % 100_000)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if top := st.TopN(10); len(top) != 10 {
			b.Fatalf("TopN returned %d runs", len(top))
		}
	}
}

// --- Optimizer ablation ------------------------------------------------

func BenchmarkOptimizerPipeline(b *testing.B) {
	plan := mustCompile(b, largeQuery, 16)
	pipe := optimizer.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pipe.Run(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMitosisSweep is the ablation for the partition count: plan
// size and compile cost per partitioning degree.
func BenchmarkMitosisSweep(b *testing.B) {
	for _, parts := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustCompile(b, largeQuery, parts)
			}
		})
	}
}

// BenchmarkParallelScaling is the perf trajectory of the adaptive
// parallel execution path: one aggregate/group-by TPC-H pipeline
// executed fully sequentially, on the partitioned plan at 1/4/8
// dataflow workers, and under full auto tuning. Recorded by
// bench-record into BENCH_<sha>.json, so the sequential-vs-parallel gap
// is tracked commit over commit (cmd/benchjson -baseline prints the
// delta in the CI log).
func BenchmarkParallelScaling(b *testing.B) {
	const q = "select l_returnflag, count(*) as n, min(l_quantity) as mn, max(l_quantity) as mx " +
		"from lineitem where l_shipdate <= date '1998-09-02' group by l_returnflag order by l_returnflag"
	db, err := Open(WithScaleFactor(0.05), WithSeed(42),
		WithPartitions(Auto), WithWorkers(Auto))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, opts ...ExecOption) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec(context.Background(), q, opts...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, ExecPartitions(1), ExecWorkers(1)) })
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("partitions=8/workers=%d", workers), func(b *testing.B) {
			run(b, ExecPartitions(8), ExecWorkers(workers))
		})
	}
	b.Run("auto", func(b *testing.B) { run(b) })
}

// BenchmarkParallelJoin is the perf trajectory of join mitosis: the
// probe side (lineitem) sliced against a packed orders build,
// aggregated to keep result transfer out of the measurement. Recorded
// by bench-record and enforced by the CI bench gate from day one; the
// companion assertion is TestAutoParallelJoinSpeedup.
func BenchmarkParallelJoin(b *testing.B) {
	const q = "select o_orderpriority, count(*) as n from lineitem, orders " +
		"where l_orderkey = o_orderkey group by o_orderpriority order by o_orderpriority"
	db, err := Open(WithScaleFactor(0.05), WithSeed(42),
		WithPartitions(Auto), WithWorkers(Auto))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, opts ...ExecOption) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec(context.Background(), q, opts...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, ExecPartitions(1), ExecWorkers(1)) })
	b.Run("auto", func(b *testing.B) { run(b) })
}

// --- Morsel-driven execution: bounded intermediates --------------------

// peakRSSQuery aggregates seven lineitem columns behind a barely
// selective filter: the static lowering materializes every partition's
// selection vectors and fetched aggregate inputs in the run context at
// once (they stay live until the run ends), while the morsel lowering
// holds only workers × morsel rows of fragment state plus the tiny
// per-morsel group partials.
const peakRSSQuery = "select l_shipmode, count(*) as n, sum(l_quantity) as q, sum(l_extendedprice) as ep, " +
	"sum(l_discount) as d, sum(l_tax) as tx, max(l_orderkey) as mo, min(l_partkey) as mp " +
	"from lineitem where l_quantity > 1 group by l_shipmode"

// peakDB lazily opens the SF 0.1 database the peak-memory measurements
// share (~600k lineitem rows — large enough that intermediate
// footprints dwarf allocator noise).
var peakDB = func() func(tb testing.TB) *DB {
	var (
		once sync.Once
		db   *DB
		err  error
	)
	return func(tb testing.TB) *DB {
		once.Do(func() {
			db, err = Open(WithScaleFactor(0.1), WithSeed(42))
		})
		if err != nil {
			tb.Fatal(err)
		}
		return db
	}
}()

// peakHeapDuring measures the peak heap while f runs, relative to the
// pre-run baseline (the loaded catalog). Dropping GOGC to 5 for the
// duration makes the collector reclaim garbage almost as soon as it is
// produced, so the sampled HeapAlloc tracks what the run actually
// RETAINS — the intermediates held live in the run context — rather
// than transient allocation churn, which both lowerings produce in
// similar volume.
func peakHeapDuring(f func() error) (peakBytes uint64, err error) {
	old := debug.SetGCPercent(5)
	defer debug.SetGCPercent(old)
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	stop := make(chan struct{})
	done := make(chan uint64, 1)
	go func() {
		var max uint64
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > max {
				max = ms.HeapAlloc
			}
			select {
			case <-stop:
				done <- max
				return
			default:
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	err = f()
	close(stop)
	peak := <-done
	if peak > base.HeapAlloc {
		peak -= base.HeapAlloc
	} else {
		peak = 0
	}
	return peak, err
}

// execPeakQuery runs the peak-memory aggregate through Exec: the static
// mitosis lowering at 64 partitions. Each slice's intermediates die at
// their last use — a slice's selection once its columns are gathered,
// its gathers once its partial aggregates are made — so the run holds a
// few slices' worth at a time, not all 64.
func execPeakQuery(db *DB) error {
	_, err := db.Exec(context.Background(), peakRSSQuery, ExecPartitions(64), ExecWorkers(8))
	return err
}

// streamPeakQuery drains the same aggregate through Stream: the
// morsel-driven lowering at its auto size (16Ki rows at this scale).
func streamPeakQuery(db *DB) error {
	it, err := db.Stream(context.Background(), peakRSSQuery, ExecWorkers(8))
	if err != nil {
		return err
	}
	for it.Next() {
	}
	return it.Close()
}

// BenchmarkPeakRSS compares peak intermediate memory between Exec
// (static mitosis, 64 partitions, slices released at last use) and a
// drained Stream (morsel fragments on 8 workers) on the same aggregate.
// The peak-bytes metric is recorded by bench-record and gated by
// cmd/benchjson alongside ns/op; both must stay well under the bytes
// of the columns the query scans (the companion assertion is
// TestMorselBoundsPeakMemory).
func BenchmarkPeakRSS(b *testing.B) {
	db := peakDB(b)
	variants := []struct {
		name string
		run  func(*DB) error
	}{
		{"static", execPeakQuery},
		{"morsel", streamPeakQuery},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var peak uint64
			for i := 0; i < b.N; i++ {
				p, err := peakHeapDuring(func() error { return v.run(db) })
				if err != nil {
					b.Fatal(err)
				}
				if p > peak {
					peak = p
				}
			}
			b.ReportMetric(float64(peak), "peak-bytes")
		})
	}
}

// scannedBytes is the size of the columns peakRSSQuery scans: lineitem's
// rows times the element width of each column it reads — a string
// column's codes are 4 bytes, the other six columns 8. Nothing a run
// does changes it, so it is the yardstick the peak-memory assertion
// measures both lowerings against.
func scannedBytes(t *testing.T, db *DB) uint64 {
	t.Helper()
	lineitem, ok := db.cat.Table("sys", "lineitem")
	if !ok {
		t.Fatal("no lineitem table")
	}
	var width uint64
	for _, c := range []string{"l_shipmode", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_orderkey", "l_partkey"} {
		switch kind, _ := lineitem.ColumnKind(c); kind {
		case storage.Str:
			width += 4
		case storage.Bool:
			width++
		default:
			width += 8
		}
	}
	return uint64(lineitem.Rows()) * width
}

// TestMorselBoundsPeakMemory is the assertion behind bounded
// intermediates: on the high-fanout aggregate, the peak live heap of
// Exec (static mitosis, slices released at their last use) and of a
// drained Stream (morsel fragments) must each be at least 40% below the
// bytes of the columns the query scans (600 602 rows × 52 B = 31.2 MB at
// SF 0.1, a ceiling of 18.7 MB). A run that kept every slice's
// intermediates until it ended (Exec's peak was 41.9 MB so) fails it.
// Forced-GC sampling keeps the measurement on the live set, but it is
// still a heap measurement — skipped under -short and -race, where
// instrumentation distorts it.
func TestMorselBoundsPeakMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement skipped in -short")
	}
	if raceEnabled {
		t.Skip("heap measurement skipped under -race")
	}
	db := peakDB(t)
	measure := func(run func(*DB) error) uint64 {
		t.Helper()
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			peak, err := peakHeapDuring(func() error { return run(db) })
			if err != nil {
				t.Fatal(err)
			}
			if peak < best {
				best = peak
			}
		}
		return best
	}
	scanned := scannedBytes(t, db)
	ceiling := 0.6 * float64(scanned)
	for _, lowering := range []struct {
		name string
		run  func(*DB) error
	}{{"static", execPeakQuery}, {"morsel", streamPeakQuery}} {
		peak := measure(lowering.run)
		t.Logf("%s: peak live heap %d bytes, %.0f%% below the %d bytes scanned",
			lowering.name, peak, 100*(1-float64(peak)/float64(scanned)), scanned)
		if float64(peak) > ceiling {
			t.Errorf("%s peak %d bytes is not >= 40%% below the %d bytes the query scans", lowering.name, peak, scanned)
		}
	}
}

// --- Observability: the always-on metrics tax --------------------------

// BenchmarkMetricsOverhead measures the cost of the always-on
// observability layer on the hottest serving path: a cached-plan Exec
// with the metrics registry wired (the shipping configuration, "on")
// versus the same DB with every metrics sink detached ("off"). The
// instrumentation is a handful of uncontended atomic adds per
// instruction, so the two variants must stay within a few percent of
// each other; both are recorded by bench-record and enforced by the CI
// bench gate so an accidentally hot metrics path shows up as a
// regression of "on" against its own baseline. The 128-partition plan
// keeps the measurement above the gate's noise floor and maximizes
// instructions per Exec — the worst case for per-instruction counters.
func BenchmarkMetricsOverhead(b *testing.B) {
	ctx := context.Background()
	run := func(b *testing.B, disable bool) {
		db, err := Open(WithScaleFactor(0.001))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.Close() })
		if disable {
			db.disableMetrics()
		}
		if _, err := db.Exec(ctx, cacheBenchQuery, ExecPartitions(128)); err != nil {
			b.Fatal(err) // warm the plan cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Exec(ctx, cacheBenchQuery, ExecPartitions(128))
			if err != nil {
				b.Fatal(err)
			}
			if !res.Stats.CacheHit {
				b.Fatal("expected a plan-cache hit")
			}
		}
	}
	b.Run("on", func(b *testing.B) { run(b, false) })
	b.Run("off", func(b *testing.B) { run(b, true) })
}

// BenchmarkParallelSort tracks sort mitosis: per-slice sorts with the
// fused top-k truncation feeding one mat.kmerge. The companion
// assertion is TestAutoParallelSortSpeedup.
func BenchmarkParallelSort(b *testing.B) {
	const q = "select l_orderkey, l_extendedprice from lineitem " +
		"order by l_extendedprice desc, l_orderkey limit 100"
	db, err := Open(WithScaleFactor(0.05), WithSeed(42),
		WithPartitions(Auto), WithWorkers(Auto))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, opts ...ExecOption) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec(context.Background(), q, opts...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, ExecPartitions(1), ExecWorkers(1)) })
	b.Run("auto", func(b *testing.B) { run(b) })
}

// --- Shared-work serving ----------------------------------------------

// BenchmarkSharedWork measures the single-flight serving win at 64
// concurrent clients. identical: every client issues the same
// statement, so concurrent calls coalesce onto one execution.
// distinct: each client issues its own statement (all pre-warmed in
// the plan cache, so compilation cost is identical across the two
// cases) and nothing coalesces. ns/op is wall time per completed
// statement; identical should complete statements at a multiple of
// distinct's rate — the dedup is the only difference between the
// subbenchmarks.
func BenchmarkSharedWork(b *testing.B) {
	db, err := Open(WithScaleFactor(0.005))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	const clients = 64
	variants := make([]string, clients)
	for i := range variants {
		// 64 genuinely distinct statements of near-identical cost: the
		// predicate constant differs per client, so nothing coalesces.
		// The statement is deliberately heavy (join + aggregate): cheap
		// statements finish inside one scheduler quantum on small
		// machines and never overlap, which would benchmark the
		// scheduler, not the dedup.
		variants[i] = fmt.Sprintf("select o_orderpriority, count(*) as n from lineitem, orders "+
			"where l_orderkey = o_orderkey and l_partkey > %d group by o_orderpriority order by o_orderpriority", i)
	}
	for _, q := range variants {
		if _, err := db.Exec(ctx, q); err != nil {
			b.Fatal(err) // warm the plan cache for every variant
		}
	}
	run := func(b *testing.B, pick func(client int) string) {
		jobs := make(chan struct{})
		errs := make(chan error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				q := pick(c)
				for range jobs {
					if _, err := db.Exec(ctx, q); err != nil {
						select {
						case errs <- err:
						default:
						}
					}
				}
			}(c)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			jobs <- struct{}{}
		}
		close(jobs)
		wg.Wait()
		b.StopTimer()
		select {
		case err := <-errs:
			b.Fatal(err)
		default:
		}
	}
	b.Run("identical/clients=64", func(b *testing.B) { run(b, func(int) string { return variants[0] }) })
	b.Run("distinct/clients=64", func(b *testing.B) { run(b, func(c int) string { return variants[c] }) })
}

// countingDiscard counts what a benchmark writes and keeps none of it.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// BenchmarkEncodeWide prices the result→text hop alone: QX2 at SF 0.02
// (the serve-wide reply, 43 651 rows × 8 columns, 2 MB) through
// Result.WriteTable. MB/s is of text produced; allocs/op guards the
// encoder's allocation-free row loop.
func BenchmarkEncodeWide(b *testing.B) {
	db, err := Open(WithScaleFactor(0.02))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	res, err := db.Exec(context.Background(), largeQuery)
	if err != nil {
		b.Fatal(err)
	}
	var w countingDiscard
	if err := res.WriteTable(&w); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(w.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := res.WriteTable(&w); err != nil {
			b.Fatal(err)
		}
	}
}
