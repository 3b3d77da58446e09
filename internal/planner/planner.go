// Package planner owns the serving layer's shared statement-compilation
// flow: plan-cache lookup, parse, bind, adaptive partition resolution,
// MAL lowering, optimizer pipeline, and cache insertion. The facade
// (DB.Exec/Explain) and every server session compile through one
// Planner-shaped flow, so the cache-key discipline (normalized
// partition counts, the Auto sentinel as its own key) and the
// memoization of auto resolutions (Entry.Partitions/TuneReason) cannot
// drift between entry points.
package planner

import (
	"fmt"
	"sync"

	"stethoscope/internal/adaptive"
	"stethoscope/internal/algebra"
	"stethoscope/internal/compiler"
	"stethoscope/internal/mal"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/plancache"
	"stethoscope/internal/sql"
	"stethoscope/internal/storage"
)

// Planner binds the shared compilation inputs: the catalog to resolve
// tables (and auto fan-outs) against, the shared plan cache (nil
// disables caching), the optimizer pipeline with its cache-key spec,
// and the compile flight that coalesces concurrent cache misses.
type Planner struct {
	Cat      *storage.Catalog
	Cache    *plancache.Cache
	Pipeline optimizer.Pipeline
	PassSpec string
	// Flight, when non-nil, single-flights cache-miss compilations:
	// concurrent Compile calls for the same key (identical Exec,
	// Explain, or server QUERY/EXPLAIN statements) run the parse → bind
	// → compile → optimize chain once instead of racing to populate the
	// plan cache. The facade and its servers share one flight so the
	// coalescing spans entry points; a nil flight compiles every miss
	// independently (correct, just duplicated work).
	Flight *CompileFlight
}

// compileCall is one in-flight compilation.
type compileCall struct {
	done chan struct{}
	c    Compiled
	err  error
}

// CompileFlight coalesces concurrent compilations of the same cache
// key. It holds only in-flight work — entries are removed before their
// outcome is published, so it never caches (the plan cache does that).
type CompileFlight struct {
	mu    sync.Mutex
	calls map[plancache.Key]*compileCall
}

// NewCompileFlight returns an empty flight.
func NewCompileFlight() *CompileFlight {
	return &CompileFlight{calls: map[plancache.Key]*compileCall{}}
}

// do runs compile under single-flight semantics for key. Followers
// block until the leader finishes (compilation is CPU-bound and quick;
// there is no cancellation point) and report coalesced=true.
func (f *CompileFlight) do(key plancache.Key, compile func() (Compiled, error)) (c Compiled, coalesced bool, err error) {
	f.mu.Lock()
	if call, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-call.done
		return call.c, true, call.err
	}
	call := &compileCall{done: make(chan struct{})}
	f.calls[key] = call
	f.mu.Unlock()

	call.c, call.err = compile()

	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(call.done)
	return call.c, false, call.err
}

// Compiled is one compilation outcome: the optimized plan plus what it
// was compiled with and why.
type Compiled struct {
	Plan *mal.Plan
	Opt  optimizer.Stats
	Aux  *plancache.Aux // nil when caching is disabled
	// Partitions is the mitosis fan-out compiled into the plan; it
	// differs from the request only under Auto, where TuneReason then
	// records the selection inputs and outcome.
	Partitions int
	TuneReason string
	Cached     bool
	// Rows is the bound tree's driver-row count (algebra.DriverRows),
	// measured when the compilation needed it (Auto partitions or
	// morsel mode) and memoized through the cache; ResolveMorsel sizes
	// Auto morsels from it at execution time.
	Rows int
}

// ResolveExec applies a session's worker setting to this compilation:
// Auto resolves against the compiled partition fan-out, explicit counts
// pass through. It returns the concrete worker count, whether any
// setting was adaptively chosen, and the combined tuning note — the one
// resolution both Result.Stats and the history RunMeta record, shared
// by the facade Exec path and the server QUERY path so the two can
// never diverge.
func (c Compiled) ResolveExec(requestedWorkers int) (workers int, autoTuned bool, reason string) {
	workers, wreason := adaptive.ResolveWorkers(requestedWorkers, c.Partitions)
	autoTuned = c.TuneReason != "" || requestedWorkers == adaptive.Auto
	return workers, autoTuned, adaptive.JoinReasons(c.TuneReason, wreason)
}

// ResolveMorsel turns a normalized morsel setting into the engine's
// MorselRows option: 0 means morsel mode off (the plan was compiled
// without fragments and the option is ignored anyway), Auto sizes the
// morsel from the compiled plan's driver rows, and explicit sizes pass
// through. runner.Prepare is the caller, so every entry point records
// the same resolution.
func (c Compiled) ResolveMorsel(requested int) (morselRows int, autoTuned bool, reason string) {
	switch {
	case requested == 0:
		return 0, false, ""
	case requested == adaptive.Auto:
		m, r := adaptive.MorselRowsFor(c.Rows, adaptive.Procs())
		return m, true, r
	default:
		return requested, false, ""
	}
}

// ResolvePartitions turns an Auto partition request into a concrete
// fan-out for the bound tree; explicit counts pass through with an
// empty reason. The fan-out is sized from the rows that actually
// parallelize under the tree's cost shape (algebra.DriverRows): the
// probe-side rows for join plans — the packed build side must not
// inflate the fan-out — and the sorted input's rows for sort plans. The
// shape is recorded in the tuning note so Result.Stats.TuneReason and
// the history RunMeta show which cost model sized the plan.
func ResolvePartitions(cat *storage.Catalog, requested int, tree algebra.Node) (int, string) {
	if requested != adaptive.Auto {
		return requested, ""
	}
	rows, shape := algebra.DriverRows(tree, cat)
	return adaptive.PartitionsFor(rows, adaptive.Procs(), shape)
}

// Compile lowers SQL to an optimized MAL plan, consulting the cache
// first. partitions must be normalized by the caller
// (adaptive.Normalize); the Auto sentinel keys the cache
// directly and is resolved here — after bind — with the resolution
// memoized in the entry. Cached plans are shared between concurrent
// executions and must be treated as immutable; Aux memoizes derived
// artifacts (the dot export the history store records) across every
// session sharing the entry.
func (p *Planner) Compile(query string, partitions int, morsel bool) (Compiled, error) {
	key := plancache.Key{SQL: query, Partitions: partitions, Morsel: morsel, Passes: p.PassSpec}
	if p.Cache != nil {
		if e, ok := p.Cache.Get(key); ok {
			return Compiled{Plan: e.Plan, Opt: e.Opt, Aux: e.Aux,
				Partitions: e.Partitions, TuneReason: e.TuneReason, Rows: e.Rows, Cached: true}, nil
		}
	}
	if p.Flight == nil {
		return p.compileMiss(key, query, partitions, morsel)
	}
	c, coalesced, err := p.Flight.do(key, func() (Compiled, error) {
		return p.compileMiss(key, query, partitions, morsel)
	})
	if err != nil {
		return Compiled{}, err
	}
	if coalesced {
		// The follower's plan was compiled by a concurrent identical
		// call — compilation was skipped exactly as on a cache hit.
		c.Cached = true
	}
	return c, nil
}

// compileMiss is the cache-miss compilation chain.
func (p *Planner) compileMiss(key plancache.Key, query string, partitions int, morsel bool) (Compiled, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return Compiled{}, fmt.Errorf("parse: %w", err)
	}
	tree, err := algebra.Bind(stmt, p.Cat)
	if err != nil {
		return Compiled{}, fmt.Errorf("bind: %w", err)
	}
	// Driver rows feed the Auto partition fan-out and, in morsel mode,
	// the per-run Auto morsel sizing; measure them once and memoize.
	var rows int
	resolved, reason := partitions, ""
	if partitions == adaptive.Auto || morsel {
		var shape string
		rows, shape = algebra.DriverRows(tree, p.Cat)
		if partitions == adaptive.Auto {
			resolved, reason = adaptive.PartitionsFor(rows, adaptive.Procs(), shape)
		}
	}
	plan, err := compiler.Compile(tree, stmt.Text, compiler.Options{Partitions: resolved, Morsel: morsel})
	if err != nil {
		return Compiled{}, fmt.Errorf("compile: %w", err)
	}
	plan, stats, err := p.Pipeline.Run(plan)
	if err != nil {
		return Compiled{}, fmt.Errorf("optimize: %w", err)
	}
	c := Compiled{Plan: plan, Opt: stats, Partitions: resolved, TuneReason: reason, Rows: rows}
	if p.Cache != nil {
		c.Aux = &plancache.Aux{}
		p.Cache.Put(key, plancache.Entry{Plan: plan, Opt: stats, Aux: c.Aux,
			Partitions: resolved, TuneReason: reason, Rows: rows})
	}
	return c, nil
}
