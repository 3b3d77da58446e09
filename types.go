package stethoscope

import (
	"stethoscope/internal/ascii"
	"stethoscope/internal/core"
	"stethoscope/internal/engine"
	"stethoscope/internal/metrics"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/profiler"
	"stethoscope/internal/tpch"
)

// This file re-exports the leaf data types of the pipeline so that
// facade users never have to name an internal package. The aliases are
// intentional: the values flowing out of DB/Result/Analysis/Monitor are
// the very structs the internal packages produce, and an alias keeps
// them interchangeable with the internal code without a copy layer.

// Event is one profiler record: the start or done half of an executed
// MAL instruction, with its timing and resource accounting.
type Event = profiler.Event

// Event lifecycle states (Event.State).
const (
	StateStart = profiler.StateStart
	StateDone  = profiler.StateDone
)

// Color is a node execution-state color; Coloring maps program counters
// to colors.
type (
	Color    = core.Color
	Coloring = core.Coloring
)

// The paper's palette: RED for running/long-running, GREEN for completed.
const (
	ColorNone  = core.ColorNone
	ColorRed   = core.ColorRed
	ColorGreen = core.ColorGreen
)

// Analysis result records, produced by Result and Analysis accessors.
type (
	// CostlyInstr is one entry of the costly-instruction report.
	CostlyInstr = core.CostlyInstr
	// Utilization summarizes multi-core usage of a run.
	Utilization = core.Utilization
	// Cluster is one birds-eye bucket of the trace.
	Cluster = core.Cluster
	// ModuleStat is one row of the per-MAL-module time breakdown.
	ModuleStat = core.ModuleStat
	// Segment is one busy interval of a thread timeline.
	Segment = core.Segment
	// MemPoint is one sample of the memory-over-time curve.
	MemPoint = core.MemPoint
	// GradientStop is one legend entry of the gradient coloring.
	GradientStop = core.GradientStop
	// Replay steps a trace through the glyph space (fast-forward, rewind,
	// pause, seek).
	Replay = core.Replay
	// OptimizerStats summarizes what the optimizer pipeline changed.
	OptimizerStats = optimizer.Stats
)

// Observability types, produced by DB.Metrics and DB.Progress.
type (
	// Metric is one named sample of the metrics registry: a counter or
	// gauge value, or a histogram's cumulative buckets.
	Metric = metrics.Sample
	// MetricsSnapshot is a point-in-time view of the whole registry,
	// sorted by name (Get/Value helpers included).
	MetricsSnapshot = metrics.Snapshot
	// MetricBucket is one cumulative histogram bucket of a Metric.
	MetricBucket = metrics.Bucket
	// QueryProgress is the live progress of one in-flight query:
	// instructions completed / total from the scheduler.
	QueryProgress = engine.QueryProgress
)

// Metric kinds (Metric.Kind).
const (
	MetricCounter   = metrics.KindCounter
	MetricGauge     = metrics.KindGauge
	MetricHistogram = metrics.KindHistogram
)

// Query is one entry of the bundled TPC-H workload.
type Query = tpch.Query

// Queries returns the adapted TPC-H workload, ordered by query number.
func Queries() []Query { return tpch.Queries() }

// QueryByID looks a workload query up by its ID ("Q1").
func QueryByID(id string) (Query, bool) { return tpch.QueryByID(id) }

// SequentialAnomaly reports whether a utilization profile shows the
// paper's headline anomaly: a plan expected on expectedThreads executing
// (nearly) sequentially.
func SequentialAnomaly(u Utilization, expectedThreads int) bool {
	return core.SequentialAnomaly(u, expectedThreads)
}

// RenderOptions controls terminal rendering (width, ANSI color).
type RenderOptions = ascii.Options

// DefaultRender renders 100 columns wide without color.
func DefaultRender() RenderOptions { return ascii.DefaultOptions() }

// RenderCostly renders the costly-instruction report for the terminal.
func RenderCostly(items []CostlyInstr, o RenderOptions) string {
	return ascii.RenderCostly(items, o)
}

// RenderUtilization renders a multi-core utilization summary.
func RenderUtilization(u Utilization, o RenderOptions) string {
	return ascii.RenderUtilization(u, o)
}

// RenderBirdsEye renders the birds-eye clustering of a trace.
func RenderBirdsEye(clusters []Cluster, o RenderOptions) string {
	return ascii.RenderBirdsEye(clusters, o)
}

// RenderGantt renders the per-thread execution timeline.
func RenderGantt(timeline map[int][]Segment, o RenderOptions) string {
	return ascii.RenderGantt(timeline, o)
}

// RenderMemoryTimeline renders the memory-over-time curve.
func RenderMemoryTimeline(pts []MemPoint, o RenderOptions) string {
	return ascii.RenderMemoryTimeline(pts, o)
}
