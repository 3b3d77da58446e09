// Package runner is the one run service of the serving layer: every
// entry point that turns SQL into a profiled execution — DB.Exec,
// DB.Explain, DB.Stream and the server's QUERY (with or without a live
// TRACE), EXPLAIN and DOT — walks the paper's server-side pipeline
// (SQL → MAL plan → profiled execution → dot file + event stream, §3.3,
// §4.2) through the two calls here. Prepare normalizes the settings and
// compiles through the shared planner, whose statement key is also the
// shared-work key; Run gates the execution through the single-flight,
// runs the plan under the profiler, collects its trace, records the
// finished run into the history in one write and counts its events
// once. Sharing is only trustworthy when every entry point keys,
// attributes and records a run identically, so the key, the gate, the
// sink chain, the history record and the serving counters each exist
// exactly once, here; the facade and the server keep option parsing and
// output formatting.
package runner

import (
	"context"
	"errors"
	"fmt"
	"time"

	"stethoscope/internal/adaptive"
	"stethoscope/internal/engine"
	"stethoscope/internal/mal"
	"stethoscope/internal/metrics"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/plancache"
	"stethoscope/internal/planner"
	"stethoscope/internal/profiler"
	"stethoscope/internal/sharedwork"
	"stethoscope/internal/storage"
	"stethoscope/internal/tracestore"
)

// Runner owns the serving state one database shares between all its
// entry points: the engine, the planner with its plan cache and
// compile flight, the run flight, the optional history store, the
// metrics registry all of them feed, and the serving cells. It is safe
// for concurrent use; the exported fields are set by New and read-only
// afterwards.
type Runner struct {
	Engine   *engine.Engine
	Planner  planner.Planner
	Flight   *sharedwork.Flight // the run flight: the shared-work gate
	History  *tracestore.Store  // nil when runs are not recorded
	Registry *metrics.Registry

	created time.Time
	latency *metrics.Histogram // stetho_query_latency_us: every run
	execs   *metrics.Counter   // stetho_db_execs: statements answered
	events  *metrics.Counter   // stetho_db_events: profiler events produced
}

// New builds the run service over the catalog: the default optimizer
// pipeline, a plan cache of plancache.DefaultSize entries with a
// template table of as many shapes beneath it, and — when
// history is non-nil — a durable record of every materialized run (plan
// dot text + profiler event stream + completion stats).
func New(cat *storage.Catalog, history *tracestore.Store) *Runner {
	reg := metrics.NewRegistry()
	pipeline := optimizer.Default()
	r := &Runner{
		Engine: engine.New(cat),
		Planner: planner.Planner{Cat: cat, Cache: plancache.New(plancache.DefaultSize),
			Templates: plancache.NewTemplates(plancache.DefaultSize),
			Pipeline:  pipeline, PassSpec: pipeline.Spec(), Flight: planner.NewCompileFlight()},
		Flight:   sharedwork.NewFlight(),
		History:  history,
		Registry: reg,
		created:  time.Now(),
		latency:  reg.Histogram("stetho_query_latency_us", nil),
		execs:    reg.Counter("stetho_db_execs"),
		events:   reg.Counter("stetho_db_events"),
	}
	r.Engine.SetMetrics(reg)
	r.Planner.Cache.Instrument(reg, "stetho_plancache")
	r.Planner.Templates.Instrument(reg, "stetho_plantemplate")
	reg.GaugeFunc("stetho_plancache_bytes", func() int64 { return plancache.Bytes(r.Planner.Cache, r.Planner.Templates) })
	// The allocation helper's arrays (storage, one free list per
	// process, so every runner reports the same totals): those checked
	// out as kernel outputs, and those the free list keeps for the next
	// take. Kernel outputs made without the helper are not counted.
	reg.GaugeFunc("stetho_engine_intermediate_bytes", storage.IntermediateBytes)
	reg.GaugeFunc("stetho_engine_recycled_bytes", storage.RecycledBytes)
	r.Flight.Instrument(reg, "stetho_sharedwork")
	if r.History != nil {
		r.History.Instrument(reg)
	}
	return r
}

// Settings are the per-statement execution settings of a caller: the
// facade's Open-time defaults overridden by ExecOptions, or a server
// session's SET state. Prepare normalizes them — the one place the
// rule (adaptive.Normalize: Auto passes, anything else below 1 becomes
// 1) is applied — so callers store what they were given.
type Settings struct {
	// Partitions is the mitosis fan-out, or adaptive.Auto.
	Partitions int
	// Workers is the dataflow worker count, or adaptive.Auto.
	Workers int
}

// Prepared is one statement compiled and resolved, ready to run: the
// optimized plan, the concrete settings it will execute with and why,
// and (unexported) the shared-work key. Everything a caller may show
// before or instead of running — the MAL listing, the dot text a TRACE
// session sends ahead of execution (§4.2) — is available from it.
type Prepared struct {
	SQL  string
	Plan *mal.Plan
	Opt  optimizer.Stats
	// Partitions and Workers are the resolved settings: Auto requests
	// are concrete here.
	Partitions int
	Workers    int
	// AutoTuned reports whether any setting was adaptively chosen;
	// TuneReason records the selection inputs and outcome.
	AutoTuned  bool
	TuneReason string
	// PlanCached reports that compilation was skipped (plan-cache hit,
	// or coalesced onto a concurrent identical compilation).
	PlanCached bool
	// Instantiated reports that the plan cache missed and the plan is
	// an instance of a template of the statement's shape.
	Instantiated bool

	aux *plancache.Aux
	key sharedwork.Key
}

// Dot renders the plan as dot text, memoized across every session
// sharing the cached plan.
func (p *Prepared) Dot() string { return plancache.DotText(p.Plan, p.aux) }

// MaxPartitions is the largest explicit partition count a statement may
// request. A plan grows by a few instructions per column per partition,
// so an unbounded count lets one client make the compiler allocate
// gigabytes. The ceiling sits far above any useful fan-out (Auto stops
// at adaptive.MaxPartitions) and above the 2000 slices the lowering
// tests use to cut tables finer than their rows.
const MaxPartitions = 4096

// Partitions normalizes a requested partition count (adaptive.Normalize)
// and refuses one above MaxPartitions.
func Partitions(n int) (int, error) {
	n = adaptive.Normalize(n)
	if n > MaxPartitions {
		return 0, fmt.Errorf("partitions %d exceeds the limit of %d", n, MaxPartitions)
	}
	return n, nil
}

// MaxWorkers is the largest explicit dataflow worker count a statement
// may request. Every worker is a goroutine of the run and a permanent
// stetho_engine_worker_instructions_total series, so an unbounded count
// lets one client start tens of thousands of both per query. Auto never
// picks more than GOMAXPROCS; the ceiling sits far above any core count.
const MaxWorkers = 256

// Prepare compiles the statement under the settings through the shared
// planner flow and resolves Auto worker requests against the compiled
// plan. Normalization runs first, so out-of-range
// values can neither alias plan-cache or shared-work keys nor leak into
// the recorded history metadata, and a partition count above
// MaxPartitions or a worker count above MaxWorkers is refused before
// anything compiles.
func (r *Runner) Prepare(query string, s Settings) (*Prepared, error) {
	var err error
	if s.Partitions, err = Partitions(s.Partitions); err != nil {
		return nil, err
	}
	if s.Workers = adaptive.Normalize(s.Workers); s.Workers > MaxWorkers {
		return nil, fmt.Errorf("workers %d exceeds the limit of %d", s.Workers, MaxWorkers)
	}
	c, err := r.Planner.Compile(query, s.Partitions, false)
	if err != nil {
		return nil, err
	}
	workers, auto, reason := c.ResolveExec(s.Workers)
	return &Prepared{
		SQL:          query,
		Plan:         c.Plan,
		Opt:          c.Opt,
		Partitions:   c.Partitions,
		Workers:      workers,
		AutoTuned:    auto,
		TuneReason:   reason,
		PlanCached:   c.Cached,
		Instantiated: c.Instantiated,
		aux:          c.Aux,
		key:          c.Key,
	}, nil
}

// RunOptions carries what genuinely differs between callers of Run.
type RunOptions struct {
	// Sinks are extra profiler sinks observing this run — a TRACE
	// session's filtered UDP batcher. A run with private observers
	// cannot be replayed from a shared outcome, so it bypasses the
	// flight and always executes.
	Sinks []profiler.Sink
	// Emit, when set, streams result batches to the caller as the
	// engine produces them (engine.Options.Emit). A streaming run is
	// always solo — it bypasses the flight, so no shared run ever
	// streams — collects no trace and is not recorded into the
	// history, whose wall times measure materialized executions.
	Emit func(names []string, cols []*storage.BAT) error
}

// Run answers one prepared statement. via reports how: "" — this call
// executed the plan; "attached" — it waited on a concurrent identical
// execution and shares that run's outcome. Shared outcomes are
// byte-identical to an unshared execution (the key holds everything that
// decides result bytes) and are immutable: copy their Events
// (Outcome.CloneEvents) before handing them on. An outcome returned with
// via "" is the caller's own.
//
// ctx cancels the execution. A follower whose leader was canceled while
// its own ctx is still live re-runs the statement itself.
func (r *Runner) Run(ctx context.Context, p *Prepared, opts RunOptions) (out *sharedwork.Outcome, via string, err error) {
	if len(opts.Sinks) > 0 || opts.Emit != nil {
		out, err = r.execute(ctx, p, opts)
	} else {
		out, via, err = r.share(ctx, p)
	}
	if err != nil {
		return nil, "", err
	}
	r.execs.Add(1)
	return out, via, nil
}

// share is the shared-work gate: the single-flight.
func (r *Runner) share(ctx context.Context, p *Prepared) (*sharedwork.Outcome, string, error) {
	out, err, attached, waiters := r.Flight.Do(ctx, p.key, func() (*sharedwork.Outcome, error) {
		return r.execute(ctx, p, RunOptions{})
	})
	if attached && err != nil && ctx.Err() == nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// The leader was canceled, this caller was not: its claim on the
		// shared run died with the leader, so it runs solo.
		out, err = r.execute(ctx, p, RunOptions{})
		attached, waiters = false, 0
	}
	switch {
	case err != nil:
		return nil, "", err
	case attached:
		return out, "attached", nil
	}
	if waiters > 0 {
		// The outcome is now shared with followers, and each consumer
		// hands its events to callers through Result.Events, on any
		// goroutine; so the leader, like every follower, gets a slice of
		// its own.
		own := *out
		own.Events = out.CloneEvents()
		out = &own
	}
	return out, "", nil
}

// execute is the single run-profile-record body: it runs the plan to
// completion under the profiler, records the finished run into the
// history and packages the execution as a shareable Outcome. History
// recording happens here, inside the shared run, so one shared execution
// is one history record and every consumer's RunID points at it. The
// run's trace takes one route: the profiler appends it to a private
// collector, and after the run returns the history gets it in one write
// (tracestore.Store.Record) and the event counter counts it once —
// attached consumers reuse the trace without recounting it. Nothing on
// the history path runs under the profiler's lock or inside the timed
// window.
func (r *Runner) execute(ctx context.Context, p *Prepared, opts RunOptions) (*sharedwork.Outcome, error) {
	// Room for the caller's sinks plus the trace collector below; the
	// caller's slice is never appended to.
	sinks := append(make([]profiler.Sink, 0, len(opts.Sinks)+1), opts.Sinks...)
	var trace *profiler.OwnedSliceSink
	if opts.Emit == nil {
		// Two events (start + done) per instruction: preallocate exactly.
		// The sink is private to this run and read only after it completes,
		// so the lock-free variant applies. The caller's sinks see a
		// filtered view at most; this one, and through it the history and
		// the counters, always see the full trace.
		trace = profiler.NewOwnedSliceSink(2 * len(p.Plan.Instrs))
		sinks = append(sinks, trace)
	}
	// The profiler is built per run: engine runs reset profiler state, so
	// one must not span concurrent runs. A run nobody observes
	// (streaming) runs with no profiler at all.
	var prof *profiler.Profiler
	if len(sinks) > 0 {
		prof = profiler.New(sinks...)
	}
	start := time.Now()
	res, err := r.Engine.RunContext(ctx, p.Plan, engine.Options{
		Workers:  p.Workers,
		Emit:     opts.Emit,
		Profiler: prof,
		Label:    p.SQL,
	})
	elapsed := time.Since(start)
	r.latency.Observe(elapsed.Microseconds())
	var events []profiler.Event
	if trace != nil {
		events = trace.Take()
	}
	var runID uint64
	if trace != nil && r.History != nil {
		// A failed or canceled run is recorded too, with its error and the
		// events it emitted before it stopped.
		st := tracestore.RunStats{ElapsedUs: elapsed.Microseconds(), CacheHit: p.PlanCached}
		if err != nil {
			st.Err = err.Error()
		} else {
			st.Rows = res.Rows()
		}
		id, herr := r.History.Record(tracestore.RunMeta{
			SQL:          p.SQL,
			Dot:          p.Dot(),
			Start:        start,
			Partitions:   p.Partitions,
			Workers:      p.Workers,
			Instructions: len(p.Plan.Instrs),
			AutoTuned:    p.AutoTuned,
			TuneReason:   p.TuneReason,
			Instantiated: p.Instantiated,
		}, events, st)
		if herr != nil && err == nil {
			return nil, fmt.Errorf("history: %w", herr)
		}
		runID = id
	}
	if err != nil {
		return nil, err
	}
	r.events.Add(int64(len(events)))
	return &sharedwork.Outcome{
		Res:          res,
		Events:       events,
		Elapsed:      elapsed,
		RunID:        runID,
		Partitions:   p.Partitions,
		Workers:      p.Workers,
		AutoTuned:    p.AutoTuned,
		TuneReason:   p.TuneReason,
		CacheHit:     p.PlanCached,
		Instantiated: p.Instantiated,
	}, nil
}

// Stats is a point-in-time snapshot of the serving counters.
type Stats struct {
	// Cache reports plan-cache effectiveness (hits, misses, evictions,
	// occupancy).
	Cache plancache.Stats
	// Templates reports the same of the template table beneath it: a
	// hit is a plan-cache miss answered by an instance of the
	// statement's shape instead of a compilation.
	Templates plancache.Stats
	// CacheBytes is the resident size of the cached plans and templates
	// (plancache.Bytes): what the plan cache owns of the heap.
	CacheBytes int64
	// InFlight is the number of plans currently executing — in-process
	// Exec/Stream calls and server QUERY commands alike — read from the
	// engine's progress table (stetho_engine_queries_inflight, the rows
	// of PROGRESS). Attached consumers execute nothing and are not
	// counted.
	InFlight int64
	// Execs is the number of statements answered successfully — both
	// in-process Exec/Stream calls and QUERY commands of this DB's
	// servers, shared or not.
	Execs int64
	// Events is the total number of profiler events the executions
	// produced — the one event counter (stetho_db_events). Each
	// execution's trace is counted once, after the run: never per
	// transport datagram (a query whose trace leaves as coalesced EVTB
	// batches contributes exactly its event count), never again for the
	// history record, and not for attached consumers, who ran nothing.
	Events int64
	// SharedLed and SharedAttached report single-flight execution
	// sharing: executions that ran as flight leaders vs. executions
	// served by attaching to a concurrent identical run. Attached
	// executions still count in Execs — they completed a caller's query
	// — but ran no plan.
	SharedLed      int64
	SharedAttached int64
	// Uptime is the time since the database was opened.
	Uptime time.Duration
}

// Stats snapshots the serving counters.
func (r *Runner) Stats() Stats {
	return Stats{
		Cache:          r.Planner.Cache.Stats(),
		Templates:      r.Planner.Templates.Stats(),
		CacheBytes:     plancache.Bytes(r.Planner.Cache, r.Planner.Templates),
		InFlight:       r.Engine.InFlight(),
		Execs:          r.execs.Load(),
		Events:         r.events.Load(),
		SharedLed:      r.Flight.Led(),
		SharedAttached: r.Flight.Attached(),
		Uptime:         time.Since(r.created),
	}
}

// DisableMetrics detaches the engine and query-level instrumentation
// (benchmarks measure the hot path with metrics on vs off through
// this; the registry itself stays queryable).
func (r *Runner) DisableMetrics() {
	r.Engine.SetMetrics(nil)
	r.latency = nil
}
