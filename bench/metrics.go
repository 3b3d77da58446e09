package main

import (
	"math"
	"sort"
)

// metricDef names one metric. BENCHMARK.json at the repository root lists
// the same names, units, directions and bounds; bench_test.go holds the two
// together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median the metric may worsen by
}

// endToEnd is what a user of the system sees, per workload, from the
// untraced pass. Times and rates are scaled to nominal box speed (see
// calibrate.go); the raw values are printed beside them. The bounds are the
// contract's widest, 25 %, because a third of that is as steady as repeated
// runs on the reference box get (README.md has the spread table); the
// child's peak memory, a maximum over a garbage-collected heap, is no
// steadier than its times. The eighth figure, failed_ratio, is
// printed with them but is not a bounded metric: it is 0 on a healthy run,
// and a share of 0 bounds nothing. It travels as failed/attempted, and any
// failure makes the run incorrect.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"payload_mb_per_s", "MB/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is the traced pass: calls into each layer's exported functions
// timed from outside (median over traced ops unless a ratio or a count),
// counter deltas of the program's own STATS over the measured window, and
// the set-up phases the child reports.
var perLayer = []metricDef{
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "algebra.bind_us", Unit: "us", Better: "lower"},
	{Name: "adaptive.tune_us", Unit: "us", Better: "lower"},
	{Name: "compiler.lower_us", Unit: "us", Better: "lower"},
	{Name: "compiler.plan_instrs", Unit: "count", Better: "lower"},
	{Name: "optimizer.run_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.shrink_ratio", Unit: "ratio", Better: "lower"},
	{Name: "planner.compile_us", Unit: "us", Better: "lower"},
	{Name: "planner.self_us", Unit: "us", Better: "lower"},
	{Name: "plancache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "plancache.evictions", Unit: "count", Better: "lower"},
	{Name: "sharedwork.gate_us", Unit: "us", Better: "lower"},
	{Name: "sharedwork.attached_ratio", Unit: "ratio", Better: "lower"},
	{Name: "resultcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.run_us", Unit: "us", Better: "lower"},
	{Name: "engine.busy_us", Unit: "us", Better: "lower"},
	{Name: "engine.idle_us", Unit: "us", Better: "lower"},
	{Name: "engine.utilization", Unit: "ratio", Better: "higher"},
	{Name: "engine.instrs", Unit: "count", Better: "lower"},
	{Name: "engine.events", Unit: "count", Better: "lower"},
	{Name: "engine.steals_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.parks_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.module_us.algebra", Unit: "us", Better: "lower"},
	{Name: "engine.module_us.aggr", Unit: "us", Better: "lower"},
	{Name: "engine.module_us.group", Unit: "us", Better: "lower"},
	{Name: "engine.module_us.batcalc", Unit: "us", Better: "lower"},
	{Name: "engine.module_us.mat", Unit: "us", Better: "lower"},
	{Name: "engine.module_us.sql", Unit: "us", Better: "lower"},
	{Name: "engine.module_us.bat", Unit: "us", Better: "lower"},
	{Name: "profiler.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dot.export_us", Unit: "us", Better: "lower"},
	{Name: "tracestore.begin_us", Unit: "us", Better: "lower"},
	{Name: "tracestore.append_us", Unit: "us", Better: "lower"},
	{Name: "tracestore.finish_us", Unit: "us", Better: "lower"},
	{Name: "tracestore.bytes_per_event", Unit: "bytes", Better: "lower"},
	{Name: "tracestore.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tracestore.read_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "tracestore.segments", Unit: "count", Better: "lower"},
	{Name: "tracestore.compactions", Unit: "count", Better: "lower"},
	{Name: "server.encode_us", Unit: "us", Better: "lower"},
	{Name: "server.encode_bytes", Unit: "bytes", Better: "lower"},
	{Name: "wire.ttfb_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.other_us", Unit: "us", Better: "lower"},
	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.latency_raw_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tpch.load_s", Unit: "s", Better: "lower"},
	{Name: "batstore.persist_s", Unit: "s", Better: "lower"},
	{Name: "batstore.open_s", Unit: "s", Better: "lower"},
	{Name: "dot.parse_us", Unit: "us", Better: "lower"},
	{Name: "trace.load_us", Unit: "us", Better: "lower"},
	{Name: "layout.compute_us", Unit: "us", Better: "lower"},
	{Name: "svg.render_us", Unit: "us", Better: "lower"},
	{Name: "svg.parse_us", Unit: "us", Better: "lower"},
	{Name: "zvtm.fromsvg_us", Unit: "us", Better: "lower"},
	{Name: "trace.map_us", Unit: "us", Better: "lower"},
	{Name: "core.color_pair_us", Unit: "us", Better: "lower"},
	{Name: "core.color_gradient_us", Unit: "us", Better: "lower"},
	{Name: "svg.paint_us", Unit: "us", Better: "lower"},
	{Name: "core.replay_step_us", Unit: "us", Better: "lower"},
	{Name: "core.report_us", Unit: "us", Better: "lower"},
	{Name: "layout.nodes", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "box.kernel_ms", Unit: "ms", Better: "lower"},
	{Name: "box.time_scale", Unit: "ratio", Better: "higher"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
