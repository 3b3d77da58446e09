package stethoscope

import (
	"io"
	"strings"
	"time"

	"stethoscope/internal/core"
	"stethoscope/internal/engine"
	"stethoscope/internal/runner"
	"stethoscope/internal/trace"
)

// traceView provides the trace-derived reports shared by Result (fresh
// executions), Run (stored executions) and Analysis (sessions over dot +
// trace content). A trace store is its events, so each holds one built
// up front; the zero value, with no store, reads as the empty trace.
type traceView struct {
	tstore *trace.Store
}

// Events returns the profiler events in trace order.
func (t *traceView) Events() []Event { return t.tstore.Events() }

// TraceLen returns the number of trace events.
func (t *traceView) TraceLen() int { return t.tstore.Len() }

// Costly returns the k slowest instructions — "where the time went".
func (t *traceView) Costly(k int) []CostlyInstr { return core.TopCostly(t.tstore, k) }

// Utilization summarizes multi-core usage (threads used, parallelism
// factor, per-thread busy time).
func (t *traceView) Utilization() Utilization { return core.Utilize(t.tstore) }

// ModuleBreakdown returns busy time per MAL module, descending.
func (t *traceView) ModuleBreakdown() []ModuleStat { return core.ModuleBreakdown(t.tstore) }

// ThreadTimeline returns each thread's busy segments (the Gantt chart).
func (t *traceView) ThreadTimeline() map[int][]Segment { return core.ThreadTimeline(t.tstore) }

// BirdsEye clusters the trace into n buckets for the whole-run overview.
func (t *traceView) BirdsEye(n int) []Cluster { return core.BirdsEye(t.tstore, n) }

// MemoryTimeline samples the estimated memory footprint over n points.
func (t *traceView) MemoryTimeline(n int) []MemPoint { return core.MemoryTimeline(t.tstore, n) }

// MicroReport renders the micro-analysis summary (module shares, memory
// peaks, data flow).
func (t *traceView) MicroReport() string { return core.MicroReport(t.tstore) }

// Tooltip renders the hover text for one instruction.
func (t *traceView) Tooltip(pc int) string { return core.Tooltip(t.tstore, pc) }

// TraceText returns the trace-file representation of the events, one
// marshaled event per line — the offline artifact paired with the dot
// text.
func (t *traceView) TraceText() string {
	var b strings.Builder
	t.WriteTrace(&b)
	return b.String()
}

// WriteTrace writes the trace-file representation.
func (t *traceView) WriteTrace(w io.Writer) error { return trace.Write(w, t.tstore.Events()) }

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
	// Instantiated reports that the plan cache missed and the plan was
	// instantiated from a template instead of compiled: an earlier
	// statement of the same shape — binding to the same tree up to its
	// literal values — was lowered and optimized, and this one was only
	// parsed and bound. It is never set together with CacheHit.
	Instantiated bool
	// Shared is "attached" when this call did not run the plan itself
	// but was deduplicated onto a concurrent identical statement's
	// in-flight execution, and empty for calls that executed. Shared
	// results echo the producing run's resolved settings
	// (Partitions/Workers) and its RunID.
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

	prep *runner.Prepared // the plan and its memoized dot text
	res  *engine.Result
}

// RowCount returns the result row count.
func (r *Result) RowCount() int {
	if r.res == nil {
		return 0
	}
	return r.res.Rows()
}

// Columns returns the result column names.
func (r *Result) Columns() []string {
	if r.res == nil {
		return nil
	}
	return append([]string(nil), r.res.Names...)
}

// WriteTable renders the result as tab-separated text with a header
// line.
func (r *Result) WriteTable(w io.Writer) error {
	_, err := r.res.WriteText(w)
	return err
}

// PlanString returns the optimized MAL listing.
func (r *Result) PlanString() string { return r.prep.Plan.String() }

// Dot returns the plan's dot-file representation — the offline artifact
// Stethoscope's offline mode consumes (pair it with TraceText). It is
// rendered once per cached plan, the memo Prepared.Dot and the history
// record share.
func (r *Result) Dot() string { return r.prep.Dot() }
