package stethoscope

import (
	"io"
	"sync"
	"time"

	"stethoscope/internal/core"
	"stethoscope/internal/dot"
	"stethoscope/internal/engine"
	"stethoscope/internal/mal"
	"stethoscope/internal/trace"
)

// traceView provides the trace-derived reports shared by Result (fresh
// executions) and Analysis (sessions over dot + trace content). The
// per-pc trace index is built lazily on first use: a serving workload
// that executes thousands of queries and only reads rows should not pay
// for indexing traces it never analyzes.
type traceView struct {
	mu     sync.Mutex
	events []Event      // pending events when the store is built lazily
	tstore *trace.Store // built on first store() call (or set directly)
}

// store returns the trace store, building it on first use.
func (t *traceView) store() *trace.Store {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tstore == nil {
		t.tstore = trace.FromEventsOwned(t.events)
		t.events = nil
	}
	return t.tstore
}

// Events returns the profiler events in trace order.
func (t *traceView) Events() []Event { return t.store().Events() }

// TraceLen returns the number of trace events.
func (t *traceView) TraceLen() int { return t.store().Len() }

// Costly returns the k slowest instructions — "where the time went".
func (t *traceView) Costly(k int) []CostlyInstr { return core.TopCostly(t.store(), k) }

// Utilization summarizes multi-core usage (threads used, parallelism
// factor, per-thread busy time).
func (t *traceView) Utilization() Utilization { return core.Utilize(t.store()) }

// ModuleBreakdown returns busy time per MAL module, descending.
func (t *traceView) ModuleBreakdown() []ModuleStat { return core.ModuleBreakdown(t.store()) }

// ThreadTimeline returns each thread's busy segments (the Gantt chart).
func (t *traceView) ThreadTimeline() map[int][]Segment { return core.ThreadTimeline(t.store()) }

// BirdsEye clusters the trace into n buckets for the whole-run overview.
func (t *traceView) BirdsEye(n int) []Cluster { return core.BirdsEye(t.store(), n) }

// MemoryTimeline samples the estimated memory footprint over n points.
func (t *traceView) MemoryTimeline(n int) []MemPoint { return core.MemoryTimeline(t.store(), n) }

// MicroReport renders the micro-analysis summary (module shares, memory
// peaks, data flow).
func (t *traceView) MicroReport() string { return core.MicroReport(t.store()) }

// Tooltip renders the hover text for one instruction.
func (t *traceView) Tooltip(pc int) string { return core.Tooltip(t.store(), pc) }

// Stats describes one execution.
type Stats struct {
	// Optimizer reports what the pipeline changed.
	Optimizer OptimizerStats
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
	// Instructions is the optimized plan length.
	Instructions int
	// Partitions and Workers are the settings the query actually ran
	// with: Auto requests are resolved before execution, so these are
	// always concrete counts.
	Partitions int
	Workers    int
	// AutoTuned reports that Partitions and/or Workers were chosen
	// adaptively (the Auto sentinel); TuneReason records what the
	// selection saw and picked, e.g.
	// "auto: shape=scan rows=60175 procs=4 -> 8 partitions (...)".
	AutoTuned  bool
	TuneReason string
	// CacheHit reports whether compilation was skipped: the optimized
	// plan came from the shared plan cache, or a concurrent identical
	// compilation was coalesced through the planner's single-flight and
	// this call received its plan.
	CacheHit bool
	// Shared reports how the result was produced when this call did not
	// run the plan itself: "attached" (deduplicated onto a concurrent
	// identical statement's in-flight execution) or "resultcache"
	// (served from the WithResultCache outcome cache). Empty for calls
	// that executed. Shared results echo the producing run's resolved
	// settings (Partitions/Workers) and its RunID.
	Shared string
	// RunID is the durable query-history id of this execution, usable
	// with DB.History (Get, Replay, Compare). Zero when the DB was
	// opened without WithHistory.
	RunID uint64
}

// Result is one executed query: the optimized MAL plan, the profiler
// trace, the result table, and execution statistics. Pass it to Analyze
// to open the visual-analysis session.
type Result struct {
	traceView

	// Query is the SQL text as submitted.
	Query string
	// Stats describes the execution.
	Stats Stats

	plan *mal.Plan
	res  *engine.Result
}

// RowCount returns the result row count.
func (r *Result) RowCount() int {
	if r.res == nil {
		return 0
	}
	return r.res.Rows()
}

// Rows returns the result row count.
//
// Deprecated: use RowCount. Rows reads ambiguously next to the
// streaming API's row iterator; it remains as an alias.
func (r *Result) Rows() int { return r.RowCount() }

// Columns returns the result column names.
func (r *Result) Columns() []string {
	if r.res == nil {
		return nil
	}
	return r.res.Names
}

// WriteTable renders the result as tab-separated text with a header
// line.
func (r *Result) WriteTable(w io.Writer) error {
	_, err := r.res.WriteText(w)
	return err
}

// PlanString returns the optimized MAL listing.
func (r *Result) PlanString() string { return r.plan.String() }

// Dot returns the plan's dot-file representation — the offline artifact
// Stethoscope's offline mode consumes (pair it with TraceText).
func (r *Result) Dot() string { return dot.Export(r.plan).Marshal() }

// TraceText returns the trace-file representation of the execution, one
// marshaled event per line.
func (r *Result) TraceText() string {
	var b []byte
	for _, e := range r.store().Events() {
		b = append(b, e.Marshal()...)
		b = append(b, '\n')
	}
	return string(b)
}

// WriteTrace writes the trace-file representation.
func (r *Result) WriteTrace(w io.Writer) error {
	_, err := io.WriteString(w, r.TraceText())
	return err
}
