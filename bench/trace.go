package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"stethoscope/internal/adaptive"
	"stethoscope/internal/algebra"
	"stethoscope/internal/batstore"
	"stethoscope/internal/compiler"
	"stethoscope/internal/core"
	"stethoscope/internal/dot"
	"stethoscope/internal/engine"
	"stethoscope/internal/layout"
	"stethoscope/internal/mal"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/plancache"
	"stethoscope/internal/planner"
	"stethoscope/internal/profiler"
	"stethoscope/internal/server"
	"stethoscope/internal/sharedwork"
	"stethoscope/internal/sql"
	"stethoscope/internal/storage"
	"stethoscope/internal/svg"
	"stethoscope/internal/tpch"
	"stethoscope/internal/trace"
	"stethoscope/internal/tracestore"
	"stethoscope/internal/zvtm"
)

// The traced pass replays the head of connection 0's stream in this
// process, one op at a time, and times the calls into each layer's exported
// functions from outside. Nothing inside the program is instrumented; spans
// inside the program are a later issue.
//
// Every op is one tree: the root "op" has two children. "path" repeats what
// the server does for a QUERY (or the client for a picture) in the order it
// does it, so its duration compares with the measured latency. "probe"
// holds the measurements that are not on that path: the compile stages one
// by one (the path only sees Planner.Compile whole, and on a cached
// statement not at all), the same plan run without a profiler, the dot
// export the plan cache memoises.

// span is one timed call. Parent indexes the spans of the same file; an
// op's root has parent -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory; they are written out when the pass ends. It
// is used from one goroutine. A nil tracer records nothing, so the untraced
// pass runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes of the spans not yet ended, innermost last
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do times fn as a child of the innermost open span.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// opDo runs fn as op number t.op under a fresh root.
func (t *tracer) opDo(fn func()) {
	t.do("op", fn)
	t.op++
}

// micros returns the duration of every span called name.
func (t *tracer) micros(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfMicros returns, for every span called name, its duration minus its
// children's.
func (t *tracer) selfMicros(name string) []float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-child[i])/1e3)
		}
	}
	return out
}

// traceFile is the layout of out/trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Env      environment `json:"env"`
	Spans    []span      `json:"spans"`
}

func (t *tracer) write(path string, wl *workload, seed int64) error {
	b, err := json.Marshal(traceFile{Workload: wl.name, Seed: seed, Env: readEnvironment(), Spans: t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// samples collects per-op values that are not span durations.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// engineModules are the MAL modules whose busy time is reported.
var engineModules = []string{"algebra", "aggr", "group", "batcalc", "mat", "sql", "bat"}

// tracedServe replays up to ops statements of a serve workload against
// layers built the way stethoscope.Open builds them. dataset is the
// persisted dataset directory of a persisted workload; scratch is where the
// history workload's trace store goes. It returns the per-layer medians and
// the median duration of "path" in microseconds.
func tracedServe(ctx context.Context, cfg runConfig, nconn int, dataset, scratch string, tr *tracer) (map[string]float64, float64, error) {
	wl := cfg.wl
	var cat *storage.Catalog
	if wl.persisted {
		store, err := batstore.Open(dataset)
		if err != nil {
			return nil, 0, err
		}
		if cat, err = store.Catalog(); err != nil {
			return nil, 0, err
		}
	} else {
		cat = storage.NewCatalog()
		if err := tpch.Load(cat, tpch.Config{SF: cfg.sf(), Seed: tpch.DefaultConfig().Seed}); err != nil {
			return nil, 0, err
		}
	}
	pipeline := optimizer.Default()
	pl := planner.Planner{Cat: cat, Cache: plancache.New(plancache.DefaultSize), Pipeline: pipeline,
		PassSpec: pipeline.Spec(), Flight: planner.NewCompileFlight()}
	eng := engine.New(cat)
	flight := sharedwork.NewFlight()
	parts := adaptive.Auto
	if wl.parts != 0 {
		parts = wl.parts
	}
	var store *tracestore.Store
	if wl.history {
		hc := historyConfig(scratch)
		var err error
		store, err = tracestore.Open(tracestore.Options{Dir: hc.Dir, MaxSegmentBytes: hc.MaxSegmentBytes, MaxTotalBytes: hc.MaxTotalBytes})
		if err != nil {
			return nil, 0, err
		}
		defer store.Close()
	}

	// run is the engine call both the path and the probe make.
	run := func(plan *mal.Plan, workers int, prof *profiler.Profiler, label string) (*engine.Result, error) {
		return eng.RunContext(ctx, plan, engine.Options{Workers: workers, Profiler: prof, Label: label})
	}

	// Warm-up, untimed, as the measured pass has one: a pool workload's
	// statements are compiled (so the traced ops hit the plan cache as
	// measured ops do) and every column they touch is materialised. An
	// ad-hoc workload warms on statements the traced ops will not repeat.
	warmSeed, warmOps := cfg.seed, 8
	if wl.variants == 0 {
		warmSeed = ^cfg.seed
	} else {
		warmOps = (len(wl.pool(cfg.seed)) + nconn - 1) / nconn
	}
	warm := wl.stream(warmSeed, 0, nconn)
	for i := 0; i < warmOps; i++ {
		stmt := warm.next()
		comp, err := pl.Compile(stmt, parts, false)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", stmt, err)
		}
		workers, _, _ := comp.ResolveExec(adaptive.Auto)
		if _, err := run(comp.Plan, workers, nil, stmt); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", stmt, err)
		}
	}

	vals := samples{}
	var hits []bool // per op: Planner.Compile found the plan cached
	st := wl.stream(cfg.seed, 0, nconn)
	deadline := time.Now().Add(cfg.tracedBudget)
	var opErr error
	for i := 0; i < cfg.tracedOps() && opErr == nil && ctx.Err() == nil; i++ {
		if i >= minTracedOps && time.Now().After(deadline) {
			break
		}
		stmt := st.next()
		tr.opDo(func() {
			var comp planner.Compiled
			var res *engine.Result
			var events []profiler.Event
			var workers int
			fail := func(err error) bool {
				if err != nil && opErr == nil {
					opErr = fmt.Errorf("%s: %w", stmt, err)
				}
				return opErr != nil
			}
			tr.do("path", func() {
				var err error
				tr.do("planner.compile", func() { comp, err = pl.Compile(stmt, parts, false) })
				if fail(err) {
					return
				}
				workers, _, _ = comp.ResolveExec(adaptive.Auto)
				key := sharedwork.Key{SQL: stmt, Partitions: parts, Passes: pl.PassSpec}
				tr.do("sharedwork.gate", func() {
					_, err, _, _ = flight.Do(ctx, key, func() (*sharedwork.Outcome, error) {
						sink := profiler.NewOwnedSliceSink(2 * len(comp.Plan.Instrs))
						var err error
						tr.do("engine.run", func() { res, err = run(comp.Plan, workers, profiler.New(sink), stmt) })
						events = sink.Take()
						return &sharedwork.Outcome{Res: res, Events: events}, err
					})
				})
				if fail(err) {
					return
				}
				if store != nil {
					var rec *tracestore.RunWriter
					tr.do("tracestore.begin", func() {
						rec, err = store.Begin(tracestore.RunMeta{SQL: stmt, Dot: plancache.DotText(comp.Plan, comp.Aux),
							Partitions: comp.Partitions, Workers: workers, Instructions: len(comp.Plan.Instrs)})
					})
					if fail(err) {
						return
					}
					tr.do("tracestore.append", func() {
						b := profiler.NewBatcher(rec, tracestore.DefaultAppendBatch, 0)
						for _, e := range events {
							b.Emit(e)
						}
						b.Close()
					})
					tr.do("tracestore.finish", func() { err = rec.Finish(tracestore.RunStats{Rows: res.Rows()}) })
					if fail(err) {
						return
					}
				}
				var cw countingWriter
				tr.do("server.encode", func() {
					bw := bufio.NewWriter(&cw)
					server.WriteResult(bw, res)
					bw.Flush()
				})
				vals.add("server.encode_bytes", float64(cw.n))
			})
			if opErr != nil {
				return
			}
			hits = append(hits, comp.Cached)
			tr.do("probe", func() {
				var err error
				var stmtAST *sql.SelectStmt
				var tree algebra.Node
				var lowered, optimized *mal.Plan
				tr.do("sql.parse", func() { stmtAST, err = sql.Parse(stmt) })
				if fail(err) {
					return
				}
				tr.do("algebra.bind", func() { tree, err = algebra.Bind(stmtAST, cat) })
				if fail(err) {
					return
				}
				resolved := parts
				tr.do("adaptive.tune", func() {
					rows, shape := algebra.DriverRows(tree, cat)
					if n, _ := adaptive.PartitionsFor(rows, adaptive.Procs(), shape); parts == adaptive.Auto {
						resolved = n
					}
				})
				tr.do("compiler.lower", func() {
					lowered, err = compiler.Compile(tree, stmtAST.Text, compiler.Options{Partitions: resolved})
				})
				if fail(err) {
					return
				}
				before := len(lowered.Instrs)
				tr.do("optimizer.run", func() { optimized, _, err = pipeline.Run(lowered) })
				if fail(err) {
					return
				}
				vals.add("compiler.plan_instrs", float64(before))
				vals.add("optimizer.shrink_ratio", ratio(float64(len(optimized.Instrs)), float64(before)))
				tr.do("engine.run.noprofiler", func() { _, err = run(comp.Plan, workers, nil, stmt) })
				if fail(err) {
					return
				}
				tr.do("dot.export", func() { _ = dot.Export(comp.Plan).Marshal() })
			})
			if opErr != nil {
				return
			}
			// What the engine did, from the events it returned — the
			// program's public output, read with the program's own
			// analytics.
			vals.add("engine.instrs", float64(len(comp.Plan.Instrs)))
			vals.add("engine.events", float64(len(events)))
			ts := trace.FromEventsOwned(events)
			u := core.Utilize(ts)
			var busy float64
			for _, b := range u.BusyUs {
				busy += float64(b)
			}
			capacity := float64(workers) * float64(u.SpanUs)
			vals.add("engine.busy_us", busy)
			vals.add("engine.idle_us", max(capacity-busy, 0))
			vals.add("engine.utilization", min(ratio(busy, capacity), 1))
			byModule := map[string]float64{}
			for _, m := range core.ModuleBreakdown(ts) {
				byModule[m.Module] = float64(m.BusyUs)
			}
			for _, m := range engineModules {
				vals.add("engine.module_us."+m, byModule[m])
			}
		})
	}
	if opErr != nil {
		return nil, 0, opErr
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}

	out := map[string]float64{}
	for _, name := range []string{"sql.parse", "algebra.bind", "adaptive.tune", "compiler.lower", "optimizer.run",
		"planner.compile", "engine.run", "dot.export", "tracestore.begin", "tracestore.append", "tracestore.finish", "server.encode"} {
		out[name+"_us"] = median(tr.micros(name))
	}
	for name, v := range vals {
		out[name] = median(v)
	}
	out["sharedwork.gate_us"] = median(tr.selfMicros("sharedwork.gate"))
	out["profiler.overhead_ratio"] = ratio(out["engine.run_us"], median(tr.micros("engine.run.noprofiler")))
	// The planner's own time is what Compile costs beyond the five stages
	// on a miss, and all of Compile on a hit (a cache lookup).
	compile := tr.micros("planner.compile")
	stages := make([]float64, len(compile))
	for _, name := range []string{"sql.parse", "algebra.bind", "adaptive.tune", "compiler.lower", "optimizer.run"} {
		for i, v := range tr.micros(name) {
			stages[i] += v
		}
	}
	var self []float64
	for i, c := range compile {
		if !hits[i] {
			c = max(c-stages[i], 0)
		}
		self = append(self, c)
	}
	out["planner.self_us"] = median(self)
	if store != nil {
		st := store.Stats()
		var events float64
		for _, r := range store.Runs() {
			events += float64(r.Events)
		}
		out["tracestore.bytes_per_event"] = ratio(float64(st.Bytes), events)
	}
	return out, median(tr.micros("path")), nil
}

// minTracedOps is how many traced ops run even when the time budget is
// already spent.
const minTracedOps = 20

// tracedAnalyze replays ops of analyze-offline: the facade calls an
// untraced op makes, as the path, and the session-building sequence of
// internal/core step by step through each package's exported function, as
// the probe.
func tracedAnalyze(ctx context.Context, cfg runConfig, pairs []pair, tr *tracer) (map[string]float64, float64, error) {
	vals := samples{}
	deadline := time.Now().Add(cfg.tracedBudget)
	var opErr error
	for i := 0; i < cfg.tracedOps() && opErr == nil && ctx.Err() == nil; i++ {
		if i >= minTracedOps && time.Now().After(deadline) {
			break
		}
		p := pairs[i%len(pairs)]
		tr.opDo(func() {
			tr.do("path", func() {
				out, err := analyzeOnce(p, tr)
				if err == nil && out.sum != p.want {
					err = fmt.Errorf("SVG digest differs from the reference")
				}
				if err != nil {
					opErr = fmt.Errorf("%s: %w", p.id, err)
				}
				vals.add("layout.nodes", float64(out.nodes))
			})
			if opErr != nil {
				return
			}
			tr.do("probe", func() {
				var err error
				fail := func(err error) bool {
					if err != nil && opErr == nil {
						opErr = fmt.Errorf("%s: %w", p.id, err)
					}
					return opErr != nil
				}
				var g *dot.Graph
				var ts *trace.Store
				var lay *layout.Layout
				var rendered string
				var doc *svg.Doc
				tr.do("dot.parse", func() { g, err = dot.Parse(p.dot) })
				if fail(err) {
					return
				}
				tr.do("trace.load", func() { ts, err = trace.LoadString(p.trace) })
				if fail(err) {
					return
				}
				tr.do("layout.compute", func() { lay, err = layout.Compute(g, layout.DefaultOptions()) })
				if fail(err) {
					return
				}
				tr.do("svg.render", func() { rendered, err = svg.RenderString(g, lay, nil, svg.DefaultStyle()) })
				if fail(err) {
					return
				}
				tr.do("svg.parse", func() { doc, err = svg.ParseString(rendered) })
				if fail(err) {
					return
				}
				tr.do("zvtm.fromsvg", func() { _, err = zvtm.FromSVG(g.Name, doc) })
				if fail(err) {
					return
				}
				tr.do("trace.map", func() { _ = trace.MapToGraph(ts, g) })
				tr.do("core.color_pair", func() { _ = core.PairElision(ts.Events()) })
				tr.do("core.color_gradient", func() { _, _ = core.Gradient(ts.Events()) })
			})
		})
	}
	if opErr != nil {
		return nil, 0, opErr
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	out := map[string]float64{}
	for _, name := range []string{"dot.parse", "trace.load", "layout.compute", "svg.render", "svg.parse", "zvtm.fromsvg",
		"trace.map", "core.color_pair", "core.color_gradient", "svg.paint", "core.report"} {
		out[name+"_us"] = median(tr.micros(name))
	}
	out["core.replay_step_us"] = median(tr.micros("core.replay")) / replaySteps
	out["layout.nodes"] = median(vals["layout.nodes"])
	return out, median(tr.micros("path")), nil
}
