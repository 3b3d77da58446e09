package stethoscope

import (
	"fmt"
	"time"

	"stethoscope/internal/core"
	"stethoscope/internal/dot"
	"stethoscope/internal/profiler"
	"stethoscope/internal/trace"
	"stethoscope/internal/tracestore"
)

// The query-history facade: a durable trace store that survives process
// restarts, so "what ran slowly yesterday?" has an answer. Enable it on
// a DB with WithHistory(dir) — every Exec and every server QUERY is
// then recorded (plan dot text, full profiler event stream, completion
// stats) — or open a store standalone with OpenHistory (the tracehist
// CLI's path).

// Run-history leaf types, re-exported like the other pipeline leaves.
type (
	// RunInfo describes one recorded run (id, SQL, start time, settings,
	// event count, completion stats).
	RunInfo = tracestore.RunInfo
	// RunDiff is the cross-run comparison of two executions of the same
	// SQL: wall-time delta, regression verdict, per-instruction and
	// per-module busy-time deltas.
	RunDiff = core.RunDiff
	// InstrDelta is one instruction's cost difference within a RunDiff.
	InstrDelta = core.InstrDelta
	// ModuleDelta is one module's cost difference within a RunDiff.
	ModuleDelta = core.ModuleDelta
	// AggStat is one row of a history rollup (module or operator): the
	// row type of ModuleBreakdown, its key in Module.
	AggStat = core.ModuleStat
	// HistoryStats snapshots the store footprint and maintenance
	// counters (segments, bytes, recovery, retention drops).
	HistoryStats = tracestore.StoreStats
)

// HistoryConfig tunes the durable trace store behind WithHistoryConfig.
// The zero value of every field but Dir selects the defaults: 8 MiB
// segments, unlimited retention, compaction sweep every 30 s.
type HistoryConfig struct {
	// Dir is the store directory, created if missing.
	Dir string
	// MaxSegmentBytes is the segment rollover threshold.
	MaxSegmentBytes int64
	// MaxTotalBytes caps the store size; retention deletes the oldest
	// sealed segments to stay under it. 0 means unlimited.
	MaxTotalBytes int64
	// CompactEvery is the background retention sweep interval.
	// 0 selects 30 s; negative disables the background compactor.
	CompactEvery time.Duration
	// ReadOnly opens the store for inspection without taking the
	// writer lock and without truncating a torn tail — safe against a
	// store a live process is appending to. Record and Compact fail on
	// a read-only History.
	ReadOnly bool
}

// WithHistory enables the durable query history on the DB: every
// executed query's plan and profiler trace is persisted to a trace
// store at dir and queryable via DB.History after restarts.
func WithHistory(dir string) Option {
	return WithHistoryConfig(HistoryConfig{Dir: dir})
}

// WithHistoryConfig is WithHistory with retention tuning.
func WithHistoryConfig(hc HistoryConfig) Option {
	return func(c *config) { c.history = &hc }
}

func (hc HistoryConfig) storeOptions() tracestore.Options {
	compact := hc.CompactEvery
	if compact == 0 {
		compact = 30 * time.Second
	} else if compact < 0 {
		compact = 0
	}
	if hc.ReadOnly {
		compact = 0
	}
	return tracestore.Options{
		Dir:             hc.Dir,
		MaxSegmentBytes: hc.MaxSegmentBytes,
		MaxTotalBytes:   hc.MaxTotalBytes,
		CompactEvery:    compact,
		ReadOnly:        hc.ReadOnly,
	}
}

// History is the handle over a durable trace store: list and rank
// recorded runs, fetch or replay one, and diff two runs of the same
// SQL. A History attached to a DB (DB.History) is closed by DB.Close;
// a standalone one (OpenHistory) is closed by its own Close.
type History struct {
	st *tracestore.Store
}

// OpenHistory opens (or creates) a trace store without a DB — the path
// tracegen -store and offline tooling use. Crash recovery runs during
// open: a torn tail record left by a killed process is truncated and
// logged, losing at most the run being written. Writers are exclusive:
// opening a store a live process is writing fails (use
// OpenHistoryReadOnly to inspect one).
func OpenHistory(dir string) (*History, error) {
	return OpenHistoryConfig(HistoryConfig{Dir: dir, CompactEvery: -1})
}

// OpenHistoryReadOnly opens a trace store for inspection only — no
// writer lock, no recovery truncation — so it is safe against a store
// a live server is appending to. This is the tracehist CLI's path.
func OpenHistoryReadOnly(dir string) (*History, error) {
	return OpenHistoryConfig(HistoryConfig{Dir: dir, ReadOnly: true})
}

// OpenHistoryConfig is OpenHistory with retention tuning.
func OpenHistoryConfig(hc HistoryConfig) (*History, error) {
	st, err := tracestore.Open(hc.storeOptions())
	if err != nil {
		return nil, fmt.Errorf("stethoscope: history: %w", err)
	}
	return &History{st: st}, nil
}

// Close seals the store (flush + fsync) and stops its background
// compactor.
func (h *History) Close() error { return h.st.Close() }

// Queries lists the recorded runs, most recent first. limit <= 0
// returns all of them.
func (h *History) Queries(limit int) []RunInfo { return h.st.Recent(limit) }

// TopN returns the n slowest successfully completed runs, slowest
// first — "what ran slowly yesterday?".
func (h *History) TopN(n int) []RunInfo { return h.st.TopN(n) }

// Get materializes one recorded run: its metadata, plan dot text, and
// the full event stream with every trace analytic of a live Result
// (Costly, Utilization, ModuleBreakdown, Gantt, birds-eye, ...).
func (h *History) Get(id uint64) (*Run, error) {
	info, dotText, evs, err := h.st.Load(id)
	if err != nil {
		return nil, fmt.Errorf("stethoscope: history: %w", err)
	}
	return &Run{traceView: traceView{tstore: trace.FromEventsOwned(evs)}, Info: info, dotText: dotText}, nil
}

// Replay reopens a recorded run as a visual-analysis session — the
// exact OpenOffline path, fed from the store instead of files — so
// coloring, replay stepping, reports, and SVG rendering all work on
// historical traces.
func (h *History) Replay(id uint64, opts ...AnalyzeOption) (*Analysis, error) {
	run, err := h.Get(id)
	if err != nil {
		return nil, err
	}
	g, err := dot.Parse(run.dotText)
	if err != nil {
		return nil, fmt.Errorf("stethoscope: history: stored dot: %w", err)
	}
	return newAnalysis(g, run.tstore, opts)
}

// Compare diffs two recorded runs of the same SQL: wall-time delta, a
// ≥10%-slower regression verdict, and per-instruction / per-module
// busy-time deltas, largest first — core's diff over the stored traces.
func (h *History) Compare(a, b uint64) (*RunDiff, error) {
	d, err := core.DiffStored(h.st, a, b)
	if err != nil {
		return nil, fmt.Errorf("stethoscope: history: %w", err)
	}
	return d, nil
}

// ModuleRollup aggregates busy time per MAL module across the given
// runs (all runs when none are named), busiest first — the module
// breakdown of a live run, summed over stored ones.
func (h *History) ModuleRollup(ids ...uint64) ([]AggStat, error) {
	return h.rollup(profiler.ModuleOf, ids)
}

// OperatorRollup aggregates busy time per MAL operator
// ("module.function") across the given runs (all runs when none are
// named), busiest first.
func (h *History) OperatorRollup(ids ...uint64) ([]AggStat, error) {
	return h.rollup(profiler.CallOf, ids)
}

// rollup folds the stored events of the runs, one run at a time, into
// core's busy-time rollup keyed by key.
func (h *History) rollup(key func(stmt string) string, ids []uint64) ([]AggStat, error) {
	if len(ids) == 0 {
		for _, r := range h.st.Runs() {
			ids = append(ids, r.ID)
		}
	}
	r := core.NewRollup(key)
	for _, id := range ids {
		_, _, evs, err := h.st.Load(id)
		if err != nil {
			return nil, fmt.Errorf("stethoscope: history: %w", err)
		}
		r.Add(evs)
	}
	return r.Rows(), nil
}

// Compact enforces the retention policy immediately.
func (h *History) Compact() error { return h.st.Compact() }

// Stats snapshots the store footprint and maintenance counters.
func (h *History) Stats() HistoryStats { return h.st.Stats() }

// Record persists an already-executed Result as a run — the path
// tracegen -store uses to seed a store without a live server. It writes
// through the same tracestore.Store.Record a live run does and returns
// the new run id.
func (h *History) Record(res *Result) (uint64, error) {
	id, err := h.st.Record(tracestore.RunMeta{
		SQL:          res.Query,
		Dot:          res.Dot(),
		Start:        time.Now().Add(-res.Stats.Elapsed),
		Partitions:   res.Stats.Partitions,
		Workers:      res.Stats.Workers,
		Instructions: res.Stats.Instructions,
		AutoTuned:    res.Stats.AutoTuned,
		TuneReason:   res.Stats.TuneReason,
		Instantiated: res.Stats.Instantiated,
	}, res.Events(), tracestore.RunStats{
		ElapsedUs: res.Stats.Elapsed.Microseconds(),
		Rows:      res.RowCount(),
		CacheHit:  res.Stats.CacheHit,
	})
	if err != nil {
		return 0, fmt.Errorf("stethoscope: history: %w", err)
	}
	return id, nil
}

// Run is one recorded execution fetched from the history. It embeds the
// same traceView as Result and Analysis, so every trace analytic works
// on stored runs.
type Run struct {
	traceView

	// Info is the run's stored metadata and completion statistics.
	Info RunInfo

	dotText string
}

// Dot returns the stored plan dot text — pair it with TraceText to feed
// OpenOffline, or use History.Replay directly.
func (r *Run) Dot() string { return r.dotText }
