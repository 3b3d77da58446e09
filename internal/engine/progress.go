// Engine observability: the metric cells the scheduler and the morsel
// kernel feed, and the live per-run progress table — the paper's
// "watch the running query" idea applied to the morsel engine. Progress
// is fed by the morsel cursor (rows scanned / total driver rows,
// morsels done / total) and by instruction completion, all plain atomic
// adds on pre-registered cells, so leaving it on costs a few nanoseconds
// per instruction and per morsel.
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
	reg            *metrics.Registry
	runs           *metrics.Counter
	instrs         *metrics.Counter
	steals         *metrics.Counter
	parks          *metrics.Counter
	morselsClaimed *metrics.Counter
	morselRows     *metrics.Counter
	dequeHW        *metrics.Gauge
	instrUs        *metrics.Histogram

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
		reg:            reg,
		runs:           reg.Counter("stetho_engine_runs_total"),
		instrs:         reg.Counter("stetho_engine_instructions_total"),
		steals:         reg.Counter("stetho_engine_steals_total"),
		parks:          reg.Counter("stetho_engine_parks_total"),
		morselsClaimed: reg.Counter("stetho_engine_morsels_claimed_total"),
		morselRows:     reg.Counter("stetho_engine_morsel_rows_scanned_total"),
		dequeHW:        reg.Gauge("stetho_engine_deque_depth_highwater"),
		instrUs:        reg.Histogram("stetho_engine_instr_duration_us", nil),
	}
	reg.GaugeFunc("stetho_engine_queries_inflight", func() int64 {
		e.progMu.Lock()
		defer e.progMu.Unlock()
		return int64(len(e.inflight))
	})
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

// runProgress is the live state of one in-flight run. Counters only
// increase; totals are added when the work they cover is discovered
// (instruction total at run start, morsel/row totals when a mat.morsel
// instruction sizes its cursor), so done never exceeds the
// corresponding total.
type runProgress struct {
	id           int64
	label        string
	started      time.Time
	instrTotal   int64
	instrDone    atomic.Int64
	rowsTotal    atomic.Int64
	rowsScanned  atomic.Int64
	morselsTotal atomic.Int64
	morselsDone  atomic.Int64
}

func (p *runProgress) instrFinished() {
	if p != nil {
		p.instrDone.Add(1)
	}
}

// addMorselWork publishes a fragment's cursor dimensions when the
// mat.morsel instruction starts.
func (p *runProgress) addMorselWork(rows, morsels int64) {
	if p != nil {
		p.rowsTotal.Add(rows)
		p.morselsTotal.Add(morsels)
	}
}

// morselFinished records one claimed morsel's completion.
func (p *runProgress) morselFinished(rows int64) {
	if p != nil {
		p.rowsScanned.Add(rows)
		p.morselsDone.Add(1)
	}
}

// QueryProgress is a point-in-time view of one in-flight run. Row and
// morsel figures cover mat.morsel fragments (zero for plans without
// fragments); instruction figures cover the outer plan.
type QueryProgress struct {
	ID      int64
	Label   string
	Started time.Time
	Elapsed time.Duration

	InstrDone  int64
	InstrTotal int64

	RowsScanned int64
	RowsTotal   int64

	MorselsDone  int64
	MorselsTotal int64
}

// Fraction estimates completion in [0,1]: rows scanned over driver rows
// when the run has morsel work, otherwise instructions completed.
func (p QueryProgress) Fraction() float64 {
	if p.RowsTotal > 0 {
		f := float64(p.RowsScanned) / float64(p.RowsTotal)
		if f > 1 {
			f = 1
		}
		return f
	}
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
			ID:           p.id,
			Label:        p.label,
			Started:      p.started,
			Elapsed:      now.Sub(p.started),
			InstrDone:    p.instrDone.Load(),
			InstrTotal:   p.instrTotal,
			RowsScanned:  p.rowsScanned.Load(),
			RowsTotal:    p.rowsTotal.Load(),
			MorselsDone:  p.morselsDone.Load(),
			MorselsTotal: p.morselsTotal.Load(),
		})
	}
	return out
}
