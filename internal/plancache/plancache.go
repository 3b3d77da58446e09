// Package plancache implements the shared compiled-plan cache of the
// serving layer: an LRU (internal/keyed) from the statement key to the
// optimized plan. Repeated statements skip the whole parse → bind →
// compile → optimize chain — MonetDB keeps the same structure per
// session in its MAL block cache; here one cache is shared by every
// session of a DB so concurrent clients warm it for each other.
//
// Cached plans are shared, not copied: a plan handed out by Get is
// executed concurrently by many queries, so holders must treat it as
// immutable (the engine only reads plans; optimizer passes run on
// clones before insertion).
package plancache

import (
	"sync"

	"stethoscope/internal/dot"
	"stethoscope/internal/keyed"
	"stethoscope/internal/mal"
	"stethoscope/internal/optimizer"
)

// DefaultSize is the cache capacity the facade and the standalone
// server use unless configured otherwise.
const DefaultSize = 256

// Key is the statement key, declared once and at one strength for every
// reuse layer — the plan cache, the compile flight, and (as
// sharedwork.Key) the run flight and the result cache; DESIGN.md
// "Shared-work serving" has the full rationale. Only planner.Compile
// builds one. The worker count is deliberately absent: the combine
// stage packs partial results in slice order, so scheduling parallelism
// never changes bytes.
type Key struct {
	// SQL is the statement text, byte for byte (no normalization —
	// differing whitespace compiles twice, which is cheap and safe).
	SQL string
	// Partitions is the requested mitosis partition count — normalized
	// by the caller (out-of-range values clamp to 1 before key
	// construction, so partitions=0 can never alias the partitions=1
	// plan under a second key), with the adaptive sentinel
	// (stethoscope.Auto) as its own key value: its resolution is
	// deterministic per catalog and lives in Entry.Partitions.
	Partitions int
	// Morsel selects the morsel-driven lowering (DB.Stream's), which
	// emits a different plan shape (fragments + mat.morsel) than the
	// static mitosis lowering for the same SQL and partition count.
	Morsel bool
	// Passes names the optimizer pipeline, e.g. "cse,deadcode".
	Passes string
}

// Entry is a cached compilation: the optimized plan and what the
// optimizer did to it, plus a holder for artifacts derived from the
// plan on demand.
type Entry struct {
	Plan *mal.Plan
	Opt  optimizer.Stats
	// Partitions is the mitosis fan-out actually compiled into the
	// plan. It equals Key.Partitions except for auto compilations,
	// where the key carries the sentinel and this carries the
	// resolution.
	Partitions int
	// TuneReason records why an auto compilation chose its fan-out
	// (empty for explicit partition counts). Memoized here so cache
	// hits still report the reason in Result.Stats and the history.
	TuneReason string
	// Rows memoizes the bound tree's driver rows (algebra.DriverRows)
	// for morsel compilations, whose morsel size is chosen at execution
	// time from these rows without re-binding the query. Zero for
	// static compilations.
	Rows int
	// Aux memoizes derived per-plan artifacts (e.g. the dot export the
	// history store records per run). It lives and dies with the cache
	// entry, so memoized artifacts never outlive their plan.
	// planner.Compile fills it on every miss; DotText tolerates nil.
	Aux *Aux
}

// Aux memoizes expensive artifacts derived from an immutable cached
// plan. It is safe for concurrent use by every session sharing the
// entry.
type Aux struct {
	dotOnce sync.Once
	dot     string
}

// DotText renders a plan's dot-file text, memoized in aux when one
// exists — the shared helper of the facade Exec path and the server
// QUERY path, so a cached plan's dot export is rendered once no matter
// how many sessions trace or record it.
func DotText(plan *mal.Plan, aux *Aux) string {
	if aux == nil {
		return dot.Export(plan).Marshal()
	}
	aux.dotOnce.Do(func() { aux.dot = dot.Export(plan).Marshal() })
	return aux.dot
}

// Cache is the plan LRU: keyed.LRU with no TTL — a plan leaves only by
// LRU eviction or Purge. A nil *Cache always misses, which is how plan
// caching is switched off.
type Cache = keyed.LRU[Key, Entry]

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats = keyed.Stats

// New returns a cache holding up to capacity plans (clamped to >= 1).
func New(capacity int) *Cache { return keyed.NewLRU[Key, Entry](capacity, 0) }
