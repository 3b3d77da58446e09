// Package sharedwork is the serving layer's work-deduplication
// substrate: where internal/plancache shares *compilation* across
// sessions, this package shares *execution*. Its Flight is an in-flight
// execution registry with single-flight semantics: concurrent
// executions whose normalized key (SQL text + compile geometry) matches
// an in-flight run attach to it and receive the leader's Outcome instead
// of running the plan again — the GLADE multi-query-optimization
// direction reduced to its serving-path core. 64 identical concurrent
// statements run the scan once. It holds only in-flight work: a
// statement that arrives after its twin finished runs again.
//
// Key discipline: the flight keys on the statement key the plan cache
// uses. plancache.Key declares it and says why the worker count is
// excluded; the upshot here is that a 4-worker follower may attach to an
// 8-worker leader and receive a byte-identical result.
//
// Sharing discipline: an Outcome handed to more than one consumer is
// immutable. Its engine.Result is read-only by construction; its Events
// slice must be COPIED by every consumer that hands it on — the facade's
// Result.Events gives the slice to its caller, who may use it on any
// goroutine, so consumers sharing one slice would share it with every
// caller. Flight.Do reports how many followers attached so leaders know
// whether their own copy is required.
package sharedwork

import (
	"time"

	"stethoscope/internal/engine"
	"stethoscope/internal/keyed"
	"stethoscope/internal/plancache"
	"stethoscope/internal/profiler"
)

// Key identifies one execution for deduplication: the statement key.
type Key = plancache.Key

// Outcome is one completed execution in transport form: everything a
// deduplicated consumer needs to build its own Result without
// re-running the plan. Outcomes handed to multiple consumers are
// immutable; Events must be copied before they are handed on (see the
// package comment).
type Outcome struct {
	Res    *engine.Result
	Events []profiler.Event
	// Elapsed is the leader's wall-clock execution time; attached
	// consumers report it as-is (they did not run anything).
	Elapsed time.Duration
	// RunID is the durable-history id of the execution that actually
	// ran. Shared work shares its history record: every attached
	// consumer's Stats points at the same run.
	RunID uint64

	// The leader's resolved execution settings, echoed into every
	// consumer's Stats so a shared result still reports the geometry it
	// was produced with.
	Partitions   int
	Workers      int
	AutoTuned    bool
	TuneReason   string
	CacheHit     bool
	Instantiated bool
}

// CloneEvents returns a private copy of the outcome's event slice, the
// form required before a consumer hands the events on to its caller.
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
