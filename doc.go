// Package stethoscope is a from-scratch Go reproduction of
// "Stethoscope: A platform for interactive visual analysis of query
// execution plans" (Gawade & Kersten, PVLDB 2012) — and the public,
// composable facade over it.
//
// The paper's tool inspects MonetDB query execution: MAL plans rendered
// as dataflow DAGs, animated with profiler traces, online (UDP stream
// from the server) and offline (dot + trace files). This module rebuilds
// the entire stack in Go and exposes it as a library through this root
// package:
//
//	db, _ := stethoscope.Open(stethoscope.WithScaleFactor(0.01))
//	res, _ := db.Exec(ctx, "select l_tax from lineitem where l_partkey=1")
//	a, _ := stethoscope.Analyze(res)
//	fmt.Print(a.RenderGraph(stethoscope.DefaultRender()))
//
// The surface is small and composable:
//
//   - DB / Open / Exec / Stream — the server side in-process: a
//     synthetic TPC-H catalog and a profiled MAL interpreter. Exec takes
//     a context.Context that cancels the execution, and returns a Result
//     bundling the optimized MAL plan, the profiler trace, the result
//     table, and execution statistics. Stream returns a RowIter over
//     the plan Exec would run; a partitioned result streams slice by
//     slice, before the run completes. There is one lowering, static
//     mitosis, so every operator of either entry point is a node of
//     the plan graph.
//
// The execution knobs, each validated at its entry point and defaulted
// per query by ExecOption counterparts where one exists:
//
//	Open option           ExecOption        values        selects
//	--------------------  ----------------  ------------  ----------------------------------------
//	WithScaleFactor       —                 > 0           synthetic TPC-H scale factor
//	WithSeed              —                 any           data generator seed
//	WithPath              —                 dir           persisted dataset instead of generation
//	WithPartitions        ExecPartitions    ≥1 | Auto     static mitosis slice count
//	WithWorkers           ExecWorkers       ≥1 | Auto     dataflow scheduler workers
//	WithHistory(Config)   —                 dir           durable query history
//	WithMetricsAddr       —                 host:port     HTTP observability endpoint (/metrics, /progress, /debug/pprof)
//
// Auto defers the choice to the adaptive tuner at execution time; the
// resolved values and the reason land in Result.Stats (Partitions,
// Workers, TuneReason). Auto is the only value below 1 that
// means anything: every other out-of-range value (0, -1, ...) given to
// an ExecOption clamps to 1, once, in the run service every entry point
// shares (internal/runner); Open-time options reject invalid values
// outright.
//
// The optimizer pipeline (cse, deadcode) and the compiled-plan cache
// (256 plans, shared by every Exec caller and server
// session) are fixed, not options.
//
// Concurrent identical statements share work instead of repeating it:
// non-streaming executions with the same SQL and settings single-flight
// — one caller runs the plan, concurrent duplicates attach to its
// in-flight run and receive the same outcome. Only in-flight runs are
// shared: a repeat that arrives after its twin finished executes again.
// Shared results are byte-identical to a private execution;
// Result.Stats.Shared reports "attached" when a call did not run the
// plan itself. Server sessions participate too.
//   - Analyze / OpenOffline → Analysis — Stethoscope proper: the
//     laid-out plan graph, execution-state coloring (pair-elision,
//     threshold, gradient), replay, costly-instruction / utilization /
//     birds-eye / Gantt / micro reports, SVG and terminal rendering.
//   - Attach → Monitor, Dial → Remote, DB.Serve → Server — the online
//     mode: a UDP monitor with a pluggable EventSink, the mserver TCP
//     front-end, and its client.
//   - DB.Debug → Debugger — the GDB-like MAL debugger the paper
//     improves upon.
//   - WithHistory(dir) / DB.History / OpenHistory → History — the
//     durable query history: every execution is recorded into an
//     append-only segmented trace store with retention and crash
//     recovery, then listed (Queries, TopN), replayed as a full
//     Analysis, and diffed across runs (Compare) — after restarts,
//     from other processes, or over TCP via the HISTORY command.
//   - DB.Metrics / DB.WriteMetrics / DB.Progress — the always-on
//     observability surface: a lock-free metrics registry spanning
//     every engine layer (snapshot or Prometheus text) and the live
//     per-query progress table, also served over TCP (METRICS,
//     PROGRESS) and, with WithMetricsAddr, over HTTP alongside pprof.
//
// Everything else lives under internal/; see DESIGN.md for the full
// system inventory and the MonetDB-substitution notes. The experiment
// harness regenerating the paper's figures and claims is bench_test.go.
// The engine's cross-cutting invariants (kernel coverage, cancellation,
// store error naming, the atomics policy, no sends under locks) are
// enforced at lint time by cmd/stethovet — see internal/analyzers.
package stethoscope
