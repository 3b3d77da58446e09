// Package sharedwork is the serving layer's work-deduplication
// substrate: where internal/plancache shares *compilation* across
// sessions, this package shares *execution*. Two mechanisms, composed
// by the facade and the server QUERY path:
//
//   - Flight: an in-flight execution registry with single-flight
//     semantics. Concurrent executions whose normalized key (SQL text +
//     compile geometry) matches an in-flight run attach to it and
//     receive the leader's Outcome instead of running the plan again —
//     the GLADE multi-query-optimization direction reduced to its
//     serving-path core. 64 identical concurrent statements run the
//     scan once.
//
//   - ResultCache: a small TTL'd LRU over completed Outcomes for
//     idempotent repeated statements, keyed exactly like the Flight.
//     Off by default; the facade invalidates it whenever the dataset
//     can change (Persist, dataset swap).
//
// Key discipline: both mechanisms key on result identity — the
// statement key with the resolved morsel size filled in. plancache.Key
// declares it and says why the worker count is excluded and the morsel
// size is not; the upshot here is that a 4-worker follower may attach
// to an 8-worker leader and receive a byte-identical result.
//
// Sharing discipline: an Outcome handed to more than one consumer is
// immutable. Its engine.Result is read-only by construction; its Events
// slice must be COPIED by every consumer that feeds it to an owning
// consumer (trace.FromEventsOwned takes ownership and may reorder in
// place). Flight.Do reports how many followers attached so leaders know
// whether their own copy is required.
package sharedwork

import (
	"time"

	"stethoscope/internal/engine"
	"stethoscope/internal/keyed"
	"stethoscope/internal/metrics"
	"stethoscope/internal/plancache"
	"stethoscope/internal/profiler"
)

// Key identifies one execution for deduplication and result reuse: the
// statement key at result-identity strength (resolved MorselRows set).
type Key = plancache.Key

// Outcome is one completed execution in transport form: everything a
// deduplicated or cached consumer needs to build its own Result without
// re-running the plan. Outcomes handed to multiple consumers are
// immutable; Events must be copied before any owning use (see the
// package comment).
type Outcome struct {
	Res    *engine.Result
	Events []profiler.Event
	// Elapsed is the leader's wall-clock execution time; attached and
	// cached consumers report it as-is (they did not run anything).
	Elapsed time.Duration
	// RunID is the durable-history id of the execution that actually
	// ran. Shared work shares its history record: every attached or
	// cached consumer's Stats points at the same run.
	RunID uint64

	// The leader's resolved execution settings, echoed into every
	// consumer's Stats so a shared result still reports the geometry it
	// was produced with.
	Partitions int
	Workers    int
	MorselRows int
	AutoTuned  bool
	TuneReason string
	CacheHit   bool
}

// CloneEvents returns a private copy of the outcome's event slice, the
// form required before handing events to an owning consumer such as
// trace.FromEventsOwned.
func (o *Outcome) CloneEvents() []profiler.Event {
	if len(o.Events) == 0 {
		return nil
	}
	out := make([]profiler.Event, len(o.Events))
	copy(out, o.Events)
	return out
}

// Flight is the in-flight execution registry: keyed.Flight over Keys.
// Followers attach to a concurrent identical run, wait for it or their
// own ctx, and receive the leader's Outcome. A follower whose leader
// was canceled should re-run solo if its own ctx is still live; that
// policy belongs to the caller (runner.Run).
type Flight = keyed.Flight[Key, *Outcome]

// NewFlight returns an empty registry.
func NewFlight() *Flight { return keyed.NewFlight[Key, *Outcome]() }

// ResultCache is a keyed.LRU of completed Outcomes with a per-entry
// TTL (see keyed.LRU for the expiry policy). Purge is the
// dataset-change hook (Persist, dataset swap). A nil *ResultCache
// always misses, so call sites need no nil branch.
type ResultCache = keyed.LRU[Key, *Outcome]

// CacheStats is a point-in-time snapshot of result-cache
// effectiveness.
type CacheStats = keyed.Stats

// NewResultCache returns a cache holding up to capacity outcomes, each
// live for ttl after insertion. Capacity < 1 clamps to 1; ttl <= 0
// means entries never expire by time (invalidation still applies).
func NewResultCache(capacity int, ttl time.Duration) *ResultCache {
	return keyed.NewLRU[Key, *Outcome](capacity, ttl)
}

// Shared bundles the two mechanisms as the facade and its servers pass
// them around: a Flight (always present once a DB is open) and an
// optional ResultCache (nil unless WithResultCache configured one).
type Shared struct {
	Flight *Flight
	Cache  *ResultCache
}

// Instrument wires both components into the registry, under
// stetho_sharedwork_* and stetho_resultcache_*.
func (s *Shared) Instrument(reg *metrics.Registry) {
	if s == nil {
		return
	}
	s.Flight.Instrument(reg, "stetho_sharedwork")
	s.Cache.Instrument(reg, "stetho_resultcache")
}
