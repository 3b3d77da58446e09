// Package planner owns the serving layer's shared statement-compilation
// flow: plan-cache lookup, parse, bind, adaptive partition resolution,
// plan-template lookup, MAL lowering, optimizer pipeline, and cache
// insertion. The facade
// (DB.Exec/Explain) and every server session compile through one
// Planner-shaped flow, so the cache-key discipline (normalized
// partition counts, the Auto sentinel as its own key) and the
// memoization of auto resolutions (Entry.Partitions/TuneReason) cannot
// drift between entry points.
package planner

import (
	"context"
	"fmt"

	"stethoscope/internal/adaptive"
	"stethoscope/internal/algebra"
	"stethoscope/internal/compiler"
	"stethoscope/internal/keyed"
	"stethoscope/internal/mal"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/plancache"
	"stethoscope/internal/sql"
	"stethoscope/internal/storage"
)

// Planner binds the shared compilation inputs: the catalog to resolve
// tables (and auto fan-outs) against, the shared plan cache (nil always
// misses, i.e. disables caching) and the template table beneath it (nil
// compiles every cache miss), the optimizer pipeline with its cache-key
// spec, and the compile flight that coalesces concurrent cache misses.
type Planner struct {
	Cat       *storage.Catalog
	Cache     *plancache.Cache
	Templates *plancache.Templates
	Pipeline  optimizer.Pipeline
	PassSpec  string
	// Flight single-flights cache-miss compilations: concurrent Compile
	// calls for the same key (identical Exec, Explain, or server
	// QUERY/EXPLAIN statements) compile once instead of racing to
	// populate the plan cache. The facade and its servers share one so
	// the coalescing spans entry points; a nil flight compiles every
	// miss independently (correct, just duplicated work).
	Flight *CompileFlight
}

// CompileFlight coalesces concurrent compilations of the same cache
// key: keyed.Flight over compile identities. It holds only in-flight
// work, so it never caches (the plan cache does that). Compilation is
// CPU-bound and quick and has no cancellation point, so followers wait
// under context.Background().
type CompileFlight = keyed.Flight[plancache.Key, Compiled]

// NewCompileFlight returns an empty flight.
func NewCompileFlight() *CompileFlight { return keyed.NewFlight[plancache.Key, Compiled]() }

// Compiled is one compilation outcome: the cache entry — the optimized
// plan plus what it was compiled with and why (Partitions differs from
// the request only under Auto, where TuneReason records the selection)
// — and how this caller came by it.
type Compiled struct {
	plancache.Entry
	// Cached reports that compilation was skipped: a plan-cache hit, or
	// a call coalesced onto a concurrent identical compilation.
	Cached bool
	// Instantiated reports that this call missed the plan cache and
	// took its plan from a template of the statement's shape: it parsed
	// and bound the statement, but neither lowered nor optimized it.
	Instantiated bool
	// Key is the statement key; runner.Prepare runs under it too.
	Key plancache.Key
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
// session sharing the entry. The third argument is ignored: there is
// one lowering, and bench/trace.go, a module of its own, still passes
// false.
func (p *Planner) Compile(query string, partitions int, _ bool) (Compiled, error) {
	key := plancache.Key{SQL: query, Partitions: partitions, Passes: p.PassSpec}
	if e, ok := p.Cache.Get(key); ok {
		return Compiled{Entry: e, Cached: true, Key: key}, nil
	}
	c, err, coalesced, _ := p.Flight.Do(context.Background(), key, func() (Compiled, error) {
		// A caller whose lookup missed just before a concurrent leader
		// published leads only after that leader left the flight, i.e.
		// after its Put: re-check (uncounted — the miss already was)
		// instead of compiling the statement a second time.
		if e, ok := p.Cache.Peek(key); ok {
			return Compiled{Entry: e, Cached: true, Key: key}, nil
		}
		return p.compileMiss(key)
	})
	if err != nil {
		return Compiled{}, err
	}
	// A follower's plan was compiled by a concurrent identical call —
	// compilation was skipped exactly as on a cache hit.
	c.Cached = c.Cached || coalesced
	c.Instantiated = c.Instantiated && !c.Cached
	return c, nil
}

// compileMiss is the cache-miss compilation chain. A statement whose
// template key the template table holds is parsed and bound only: its
// plan is an instance of the template with its own literals. Otherwise
// it is compiled, and its plan becomes the template of its key, the
// statement itself taking the first instance.
func (p *Planner) compileMiss(key plancache.Key) (Compiled, error) {
	stmt, err := sql.Parse(key.SQL)
	if err != nil {
		return Compiled{}, fmt.Errorf("parse: %w", err)
	}
	tree, err := algebra.Bind(stmt, p.Cat)
	if err != nil {
		return Compiled{}, fmt.Errorf("bind: %w", err)
	}
	e := plancache.Entry{Aux: &plancache.Aux{}}
	e.Partitions, e.TuneReason = ResolvePartitions(p.Cat, key.Partitions, tree)
	var tkey plancache.TemplateKey
	var lits []mal.Value
	if p.Templates != nil {
		lits = compiler.Literals(tree)
		tkey = plancache.TemplateKey{Tree: algebra.Fingerprint(tree), Partitions: key.Partitions,
			Passes: key.Passes, Pattern: plancache.Pattern(lits)}
		if t, ok := p.Templates.Get(tkey); ok {
			e.Plan, e.Opt = t.Instance(stmt.Text, lits), t.Opt
			p.Cache.Put(key, e)
			return Compiled{Entry: e, Key: key, Instantiated: true}, nil
		}
	}
	plan, lifted, err := compiler.CompileLifted(tree, stmt.Text, compiler.Options{Partitions: e.Partitions})
	if err != nil {
		return Compiled{}, fmt.Errorf("compile: %w", err)
	}
	if e.Plan, e.Opt, err = p.Pipeline.Run(plan); err != nil {
		return Compiled{}, fmt.Errorf("optimize: %w", err)
	}
	if p.Templates != nil {
		p.Templates.Put(tkey, plancache.Template{Plan: e.Plan, Opt: e.Opt, Lifted: lifted})
		// The template was compiled from this very statement, so its
		// constant table already holds the statement's text and
		// literals: the first instance shares it instead of a copy.
		e.Plan = e.Plan.Instance(stmt.Text, e.Plan.Consts)
	}
	p.Cache.Put(key, e)
	return Compiled{Entry: e, Key: key}, nil
}
