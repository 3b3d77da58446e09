// Engine observability: the metric cells the scheduler feeds, and the
// live per-run progress table — the paper's "watch the running query"
// idea applied to the engine. Progress is fed by instruction
// completion, a plain atomic add, so leaving it on costs a few
// nanoseconds per instruction.
package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stethoscope/internal/metrics"
)

// engineMetrics bundles the engine's hot-path metric cells. A nil
// *engineMetrics (no registry attached) costs one nil check per update
// site; individual cells are additionally nil-safe.
type engineMetrics struct {
	reg     *metrics.Registry
	runs    *metrics.Counter
	steals  *metrics.Counter
	parks   *metrics.Counter
	dequeHW *metrics.Gauge
	instrUs *metrics.Histogram

	mu      sync.Mutex
	workers []*metrics.Counter // per-worker instruction counters, grown on demand
}

// SetMetrics attaches (or with nil, detaches) a metrics registry. Call
// before serving queries; it is not synchronized against in-flight runs.
func (e *Engine) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		e.met = nil
		return
	}
	em := &engineMetrics{
		reg:     reg,
		runs:    reg.Counter("stetho_engine_runs_total"),
		steals:  reg.Counter("stetho_engine_steals_total"),
		parks:   reg.Counter("stetho_engine_parks_total"),
		dequeHW: reg.Gauge("stetho_engine_deque_depth_highwater"),
		instrUs: reg.Histogram("stetho_engine_instr_duration_us", nil),
	}
	reg.GaugeFunc("stetho_engine_queries_inflight", e.InFlight)
	e.met = em
}

// runCounter is the nil-safe accessor for the run counter (nil
// engineMetrics hands out a nil counter, whose Inc no-ops).
func (m *engineMetrics) runCounter() *metrics.Counter {
	if m == nil {
		return nil
	}
	return m.runs
}

// workerCounter returns the instruction counter for worker i, creating
// the labeled metric on first use. Called once per worker per run, off
// the per-instruction path.
func (m *engineMetrics) workerCounter(i int) *metrics.Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.workers) <= i {
		m.workers = append(m.workers,
			m.reg.Counter(fmt.Sprintf(`stetho_engine_worker_instructions_total{worker="%d"}`, len(m.workers))))
	}
	return m.workers[i]
}

// workerTally is one worker's share of a run's instruction metrics —
// instructions completed and their durations — in plain counts only
// that worker writes, merged into the registry once, when the run ends
// (mergeTallies). Each share is its own allocation, padded so the next
// one's hot counts never share its cache lines.
type workerTally struct {
	instrs  int64
	us      metrics.Tally
	counter *metrics.Counter
	_       [64]byte
}

// tallies returns empty shares for a run on n workers, resolving the
// per-worker counters once; nil when no registry is attached.
func (m *engineMetrics) tallies(n int) []*workerTally {
	if m == nil {
		return nil
	}
	ts := make([]*workerTally, n)
	for w := range ts {
		ts[w] = &workerTally{us: m.instrUs.Tally(), counter: m.workerCounter(w)}
	}
	return ts
}

// mergeTallies adds a run's shares into the registry. Runs call it when
// they end, failed or not, after every worker has stopped.
func mergeTallies(ts []*workerTally) {
	for _, t := range ts {
		t.us.Merge()
		t.counter.Add(t.instrs)
	}
}

// runProgress is the live state of one in-flight run. The total is set
// at run start and the done count only increases, so it never exceeds
// the total.
type runProgress struct {
	id         int64
	label      string
	started    time.Time
	instrTotal int64
	instrDone  atomic.Int64
}

func (p *runProgress) instrFinished() {
	if p != nil {
		p.instrDone.Add(1)
	}
}

// QueryProgress is a point-in-time view of one in-flight run:
// instructions completed out of the plan's total.
type QueryProgress struct {
	ID      int64
	Label   string
	Started time.Time
	Elapsed time.Duration

	InstrDone  int64
	InstrTotal int64
}

// Fraction estimates completion in [0,1]: instructions completed over
// the plan's total.
func (p QueryProgress) Fraction() float64 {
	if p.InstrTotal > 0 {
		return float64(p.InstrDone) / float64(p.InstrTotal)
	}
	return 0
}

// beginProgress registers a run in the in-flight table.
func (e *Engine) beginProgress(label string, instrTotal int) *runProgress {
	p := &runProgress{label: label, started: time.Now(), instrTotal: int64(instrTotal)}
	e.progMu.Lock()
	e.progSeq++
	p.id = e.progSeq
	e.inflight[p.id] = p
	e.progMu.Unlock()
	return p
}

func (e *Engine) endProgress(p *runProgress) {
	e.progMu.Lock()
	delete(e.inflight, p.id)
	e.progMu.Unlock()
}

// InFlight is the number of runs executing now — the size of the
// progress table.
func (e *Engine) InFlight() int64 {
	e.progMu.Lock()
	defer e.progMu.Unlock()
	return int64(len(e.inflight))
}

// Progress snapshots every in-flight run, ordered by start (run id).
// Counts are read atomically per field; a snapshot taken mid-run may be
// a few updates behind but each counter is monotonically non-decreasing
// across snapshots of the same run.
func (e *Engine) Progress() []QueryProgress {
	e.progMu.Lock()
	runs := make([]*runProgress, 0, len(e.inflight))
	for _, p := range e.inflight {
		runs = append(runs, p)
	}
	e.progMu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runs[i].id < runs[j].id })
	out := make([]QueryProgress, 0, len(runs))
	now := time.Now()
	for _, p := range runs {
		out = append(out, QueryProgress{
			ID:         p.id,
			Label:      p.label,
			Started:    p.started,
			Elapsed:    now.Sub(p.started),
			InstrDone:  p.instrDone.Load(),
			InstrTotal: p.instrTotal,
		})
	}
	return out
}
