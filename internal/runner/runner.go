// Package runner is the one run service of the serving layer: every
// entry point that turns SQL into a profiled execution — DB.Exec,
// DB.Explain, DB.Stream and the server's QUERY (with or without a live
// TRACE), EXPLAIN and DOT — walks the paper's server-side pipeline
// (SQL → MAL plan → profiled execution → dot file + event stream, §3.3,
// §4.2) through the two calls here. Prepare normalizes the settings and
// compiles through the shared planner, whose statement key is also the
// shared-work key; Run gates the execution through the result cache and the
// single-flight, runs the plan under the profiler, records it into the
// history and accounts for it. Sharing is only trustworthy when every
// entry point keys, attributes and records a run identically, so the
// key, the gate, the sink chain, the history record and the serving
// counters each exist exactly once, here; the facade and the server
// keep option parsing and output formatting.
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

// Config is what a Runner is built with. The zero value selects the
// defaults every standalone caller wants: the default optimizer
// pipeline, a plan cache of plancache.DefaultSize entries, no result
// cache and no history.
type Config struct {
	// Pipeline is the optimizer pipeline; nil selects
	// optimizer.Default().
	Pipeline *optimizer.Pipeline
	// PlanCacheSize is the compiled-plan cache capacity; 0 selects
	// plancache.DefaultSize and a negative value disables plan caching
	// (every statement compiles from scratch).
	PlanCacheSize int
	// ResultCacheSize, when positive, enables the shared result cache
	// with that capacity; ResultCacheTTL is its entry lifetime (<= 0
	// never expires by time).
	ResultCacheSize int
	ResultCacheTTL  time.Duration
	// History, when non-nil, durably records every materialized run
	// (plan dot text + profiler event stream + completion stats).
	History *tracestore.Store
}

// Runner owns the serving state one database shares between all its
// entry points: the engine, the planner with its plan cache and
// compile flight, the shared-work gate, the optional history store, the
// metrics registry all of them feed, and the serving cells. It is safe
// for concurrent use; the exported fields are set by New and read-only
// afterwards.
type Runner struct {
	Engine   *engine.Engine
	Planner  planner.Planner
	Shared   *sharedwork.Shared
	History  *tracestore.Store // nil when runs are not recorded
	Registry *metrics.Registry
	// Rate is the sliding-window event rate behind Stats.EventsPerSec.
	Rate *metrics.Rate

	created  time.Time
	latency  *metrics.Histogram // stetho_query_latency_us: every run
	inflight *metrics.Gauge     // stetho_db_inflight: plans executing now
	execs    *metrics.Counter   // stetho_db_execs: statements answered
	events   *metrics.Counter   // stetho_db_events: profiler events produced
}

// New builds the run service over the catalog.
func New(cat *storage.Catalog, cfg Config) *Runner {
	reg := metrics.NewRegistry()
	r := &Runner{
		Engine:   engine.New(cat),
		Shared:   &sharedwork.Shared{Flight: sharedwork.NewFlight()},
		History:  cfg.History,
		Registry: reg,
		Rate:     metrics.NewRate(0),
		created:  time.Now(),
		latency:  reg.Histogram("stetho_query_latency_us", nil),
		inflight: reg.Gauge("stetho_db_inflight"),
		execs:    reg.Counter("stetho_db_execs"),
		events:   reg.Counter("stetho_db_events"),
	}
	r.Engine.SetMetrics(reg)
	pipeline := optimizer.Default()
	if cfg.Pipeline != nil {
		pipeline = *cfg.Pipeline
	}
	r.Planner = planner.Planner{Cat: cat, Pipeline: pipeline, PassSpec: pipeline.Spec(),
		Flight: planner.NewCompileFlight()}
	if cfg.PlanCacheSize >= 0 {
		size := cfg.PlanCacheSize
		if size == 0 {
			size = plancache.DefaultSize
		}
		r.Planner.Cache = plancache.New(size)
	}
	r.Planner.Cache.Instrument(reg, "stetho_plancache")
	if cfg.ResultCacheSize > 0 {
		r.Shared.Cache = sharedwork.NewResultCache(cfg.ResultCacheSize, cfg.ResultCacheTTL)
	}
	r.Shared.Instrument(reg)
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
	// Morsel selects the morsel-driven lowering, sized per run by the
	// adaptive tuner. Only DB.Stream sets it.
	Morsel bool
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
	// Partitions, Workers and MorselRows are the resolved settings:
	// Auto requests are concrete here. MorselRows is 0 under the static
	// lowering.
	Partitions int
	Workers    int
	MorselRows int
	// AutoTuned reports whether any setting was adaptively chosen;
	// TuneReason records the selection inputs and outcome.
	AutoTuned  bool
	TuneReason string
	// PlanCached reports that compilation was skipped (plan-cache hit,
	// or coalesced onto a concurrent identical compilation).
	PlanCached bool

	aux *plancache.Aux
	key sharedwork.Key
}

// Dot renders the plan as dot text, memoized across every session
// sharing the cached plan.
func (p *Prepared) Dot() string { return plancache.DotText(p.Plan, p.aux) }

// Prepare compiles the statement under the settings through the shared
// planner flow and resolves Auto worker requests and the morsel size
// against the compiled plan. Normalization runs first, so out-of-range
// values can neither alias plan-cache or shared-work keys nor leak into
// the recorded history metadata.
func (r *Runner) Prepare(query string, s Settings) (*Prepared, error) {
	s.Partitions = adaptive.Normalize(s.Partitions)
	s.Workers = adaptive.Normalize(s.Workers)
	c, err := r.Planner.Compile(query, s.Partitions, s.Morsel)
	if err != nil {
		return nil, err
	}
	workers, auto, reason := c.ResolveExec(s.Workers)
	// A morsel compilation (DB.Stream's lowering) is sized per run from
	// its driver rows and the core count; a static one has no fragments.
	var morselRows int
	var mreason string
	if s.Morsel {
		morselRows, mreason = adaptive.MorselRowsFor(c.Rows, adaptive.Procs())
	}
	return &Prepared{
		SQL:        query,
		Plan:       c.Plan,
		Opt:        c.Opt,
		Partitions: c.Partitions,
		Workers:    workers,
		MorselRows: morselRows,
		AutoTuned:  auto || s.Morsel,
		TuneReason: adaptive.JoinReasons(reason, mreason),
		PlanCached: c.Cached,
		aux:        c.Aux,
		key:        c.Key,
	}, nil
}

// RunOptions carries what genuinely differs between callers of Run.
type RunOptions struct {
	// Sinks are extra profiler sinks observing this run — a TRACE
	// session's filtered UDP batcher. A run with private observers
	// cannot be replayed from a shared outcome, so it bypasses the
	// flight and the result cache and always executes.
	Sinks []profiler.Sink
	// NoResultCache skips the result cache for this statement (the
	// server's "SET resultcache off"): neither served from it nor
	// stored into it. In-flight sharing is not affected.
	NoResultCache bool
	// Emit, when set, streams result batches to the caller as the
	// engine produces them (engine.Options.Emit). A streaming run is
	// always solo — it bypasses the flight and the result cache, so no
	// shared run is ever a morsel run — collects no trace and is not
	// recorded into the history, whose wall times measure materialized
	// executions.
	Emit func(names []string, cols []*storage.BAT) error
}

// Run answers one prepared statement. via reports how: "" — this call
// executed the plan; "attached" — it waited on a concurrent identical
// execution and shares that run's outcome; "resultcache" — a completed
// outcome was reused. Shared outcomes are byte-identical to an unshared
// execution (the key holds everything that decides result bytes) and
// are immutable: copy their Events (Outcome.CloneEvents) before any
// owning use. An outcome returned with via "" is the caller's own.
//
// ctx cancels the execution. A follower whose leader was canceled while
// its own ctx is still live re-runs the statement itself.
func (r *Runner) Run(ctx context.Context, p *Prepared, opts RunOptions) (out *sharedwork.Outcome, via string, err error) {
	if len(opts.Sinks) > 0 || opts.Emit != nil {
		out, err = r.execute(ctx, p, opts)
	} else {
		out, via, err = r.share(ctx, p, opts)
	}
	if err != nil {
		return nil, "", err
	}
	r.execs.Add(1)
	return out, via, nil
}

// share is the shared-work gate: result cache, then single-flight.
func (r *Runner) share(ctx context.Context, p *Prepared, opts RunOptions) (*sharedwork.Outcome, string, error) {
	cache := r.Shared.Cache
	if opts.NoResultCache {
		cache = nil
	}
	if out, ok := cache.Get(p.key); ok {
		return out, "resultcache", nil
	}
	out, err, attached, waiters := r.Shared.Flight.Do(ctx, p.key, func() (*sharedwork.Outcome, error) {
		return r.execute(ctx, p, opts)
	})
	if attached && err != nil && ctx.Err() == nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// The leader was canceled, this caller was not: its claim on the
		// shared run died with the leader, so it runs solo.
		out, err = r.execute(ctx, p, opts)
		attached, waiters = false, 0
	}
	switch {
	case err != nil:
		return nil, "", err
	case attached:
		return out, "attached", nil
	}
	cache.Put(p.key, out)
	if waiters > 0 || cache != nil {
		// The outcome is now shared with followers and/or the result
		// cache, who copy its events whenever they get to it; this
		// caller may hand them to an owning consumer
		// (trace.FromEventsOwned reorders in place), so it gets its own.
		own := *out
		own.Events = out.CloneEvents()
		out = &own
	}
	return out, "", nil
}

// execute is the single run-profile-record body: it runs the plan to
// completion under the profiler and packages the execution as a
// shareable Outcome. History recording happens here, inside the shared
// run, so one shared execution is one history record and every
// consumer's RunID points at it. Event-throughput accounting is per
// execution too — attached and cached consumers reuse the trace
// without recounting it — and counts at the profiler, once per event,
// never per transport datagram.
func (r *Runner) execute(ctx context.Context, p *Prepared, opts RunOptions) (*sharedwork.Outcome, error) {
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	// Room for the caller's sinks plus the trace and history sinks below;
	// the caller's slice is never appended to.
	sinks := append(make([]profiler.Sink, 0, len(opts.Sinks)+2), opts.Sinks...)
	var trace *profiler.OwnedSliceSink
	var rec *tracestore.RunWriter
	var hb *profiler.Batcher
	if opts.Emit == nil {
		// Two events (start + done) per instruction: preallocate exactly.
		// The sink is private to this run and read only after it completes,
		// so the lock-free variant applies. The caller's sinks see a
		// filtered view at most; this one and the history always see the
		// full trace.
		trace = profiler.NewOwnedSliceSink(2 * len(p.Plan.Instrs))
		sinks = append(sinks, trace)
		if r.History != nil {
			// A durable sink tees batched events into the trace store
			// while the query runs: events coalesce into
			// DefaultAppendBatch-event records, so the hot path pays one
			// buffered write per batch, not per event. The dot render and
			// the begin-record append happen before the elapsed clock
			// starts, so recorded wall times measure execution alone and
			// cross-path Compare stays honest.
			var err error
			rec, err = r.History.Begin(tracestore.RunMeta{
				SQL:          p.SQL,
				Dot:          p.Dot(),
				Partitions:   p.Partitions,
				Workers:      p.Workers,
				Instructions: len(p.Plan.Instrs),
				AutoTuned:    p.AutoTuned,
				TuneReason:   p.TuneReason,
			})
			if err != nil {
				return nil, fmt.Errorf("history: %w", err)
			}
			hb = profiler.NewBatcher(rec, tracestore.DefaultAppendBatch, 0)
			hb.Instrument(r.Registry)
			sinks = append(sinks, hb)
		}
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
		Workers:    p.Workers,
		MorselRows: p.MorselRows,
		Emit:       opts.Emit,
		Profiler:   prof,
		Label:      p.SQL,
	})
	elapsed := time.Since(start)
	r.latency.Observe(elapsed.Microseconds())
	var runID uint64
	if rec != nil {
		hb.Close() // flush the tail batch into the store
		st := tracestore.RunStats{ElapsedUs: elapsed.Microseconds()}
		if err != nil {
			st.Err = err.Error()
		} else {
			st.Rows = res.Rows()
			st.CacheHit = p.PlanCached
		}
		if herr := rec.Finish(st); herr != nil && err == nil {
			return nil, fmt.Errorf("history: %w", herr)
		}
		runID = rec.ID()
	}
	if err != nil {
		return nil, err
	}
	out := &sharedwork.Outcome{
		Res:        res,
		Elapsed:    elapsed,
		RunID:      runID,
		Partitions: p.Partitions,
		Workers:    p.Workers,
		AutoTuned:  p.AutoTuned,
		TuneReason: p.TuneReason,
		CacheHit:   p.PlanCached,
	}
	if trace != nil {
		out.Events = trace.Take()
		r.events.Add(int64(len(out.Events)))
		r.Rate.Add(int64(len(out.Events)))
	}
	return out, nil
}

// Stats is a point-in-time snapshot of the serving counters.
type Stats struct {
	// Cache reports plan-cache effectiveness (hits, misses, evictions,
	// occupancy). Zero-valued when caching is disabled.
	Cache plancache.Stats
	// InFlight is the number of plans currently executing — in-process
	// Exec/Stream calls and server QUERY commands alike. Attached and
	// cached consumers execute nothing and are not counted.
	InFlight int64
	// Execs is the number of statements answered successfully — both
	// in-process Exec/Stream calls and QUERY commands of this DB's
	// servers, shared or not.
	Execs int64
	// Events is the total number of profiler events the executions
	// produced. The count is per event at the profiler, never per
	// transport datagram: a query whose trace leaves as coalesced EVTB
	// batches contributes exactly its event count, not its datagram
	// count.
	Events int64
	// EventsPerSec is the recent event throughput, averaged over a
	// sliding metrics.DefaultRateWindow (10s) window — not over the
	// DB's lifetime, so a long-idle server reports 0 and a fresh burst
	// reports the burst instead of a decayed average.
	EventsPerSec float64
	// SharedLed and SharedAttached report single-flight execution
	// sharing: executions that ran as flight leaders vs. executions
	// served by attaching to a concurrent identical run. Attached
	// executions still count in Execs — they completed a caller's query
	// — but ran no plan.
	SharedLed      int64
	SharedAttached int64
	// ResultCache reports result-cache effectiveness (hits, misses,
	// evictions, expirations, invalidations, occupancy). Zero-valued
	// unless a result cache was configured.
	ResultCache sharedwork.CacheStats
	// Uptime is the time since the database was opened.
	Uptime time.Duration
}

// Stats snapshots the serving counters.
func (r *Runner) Stats() Stats {
	return Stats{
		Cache:          r.Planner.Cache.Stats(),
		InFlight:       r.inflight.Load(),
		Execs:          r.execs.Load(),
		Events:         r.events.Load(),
		EventsPerSec:   r.Rate.PerSec(),
		SharedLed:      r.Shared.Flight.Led(),
		SharedAttached: r.Shared.Flight.Attached(),
		ResultCache:    r.Shared.Cache.Stats(),
		Uptime:         time.Since(r.created),
	}
}

// DisableMetrics detaches the engine and query-level instrumentation
// (benchmarks measure the hot path with metrics on vs off through
// this; the registry itself stays queryable).
func (r *Runner) DisableMetrics() {
	r.Engine.SetMetrics(nil)
	r.latency = nil
	r.Rate = nil
}
