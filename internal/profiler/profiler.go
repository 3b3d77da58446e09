package profiler

import (
	"strings"
	"sync"
	"time"

	"stethoscope/internal/metrics"
)

// Filter selects which events a sink receives. The paper: "The profiler
// accepts filter options set through Stethoscope, which enables it to
// profile only a subset of event types." FilterSink applies one in front
// of a single sink, so the durable history and the counters still see
// the full stream. A zero Filter passes everything.
type Filter struct {
	// States restricts to the listed states when non-empty.
	States []State
	// Modules restricts to instructions of the listed MAL modules when
	// non-empty (matched against the "module." prefix of the stmt).
	Modules []string
	// MinDurUs drops done events faster than this threshold; start events
	// are unaffected (their duration is unknown yet).
	MinDurUs int64
	// PCs restricts to specific program counters when non-empty.
	PCs []int
}

// IsZero reports whether the filter passes everything.
func (f Filter) IsZero() bool {
	return len(f.States) == 0 && len(f.Modules) == 0 && f.MinDurUs == 0 && len(f.PCs) == 0
}

// Pass reports whether the event passes the filter. module is the
// instruction's MAL module (empty when unknown, which passes).
func (f Filter) Pass(e Event, module string) bool {
	if len(f.States) > 0 {
		ok := false
		for _, s := range f.States {
			if e.State == s {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(f.Modules) > 0 && module != "" {
		ok := false
		for _, m := range f.Modules {
			if m == module {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if f.MinDurUs > 0 && e.State == StateDone && e.DurUs < f.MinDurUs {
		return false
	}
	if len(f.PCs) > 0 {
		ok := false
		for _, pc := range f.PCs {
			if e.PC == pc {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Sink consumes profiler events.
type Sink interface {
	Emit(Event)
}

// ModuleOf extracts the MAL module of a statement text ("" when it has
// no module-qualified call), e.g. "algebra" for
// `X_5:bat[:oid] := algebra.thetaselect(X_1, "=", 1);`.
func ModuleOf(stmt string) string { return callPrefix(stmt, '.') }

// CallOf extracts the "module.function" call name of a statement text
// ("" when it has no call), e.g. "algebra.thetaselect" for
// `X_5:bat[:oid] := algebra.thetaselect(X_1, "=", 1);`.
func CallOf(stmt string) string { return callPrefix(stmt, '(') }

// callPrefix is the one MAL statement parse: the right-hand side of the
// assignment (the whole statement when there is none), cut before its
// first stop byte and trimmed; "" when stop does not occur.
func callPrefix(stmt string, stop byte) string {
	s := stmt
	if i := strings.Index(s, ":="); i >= 0 {
		s = s[i+2:]
	}
	if i := strings.IndexByte(s, stop); i >= 0 {
		return strings.TrimSpace(s[:i])
	}
	return ""
}

// filteredSink applies a Filter in front of one sink, deriving the
// module from the statement text.
type filteredSink struct {
	f    Filter
	next Sink
}

// Emit implements Sink.
func (s filteredSink) Emit(e Event) {
	if s.f.Pass(e, ModuleOf(e.Stmt)) {
		s.next.Emit(e)
	}
}

// FilterSink scopes a filter to a single sink of a multi-sink
// profiler: the wrapped sink sees only passing events while sibling
// sinks (durable history, counters) see the full stream. A zero filter
// returns the sink unwrapped.
func FilterSink(f Filter, next Sink) Sink {
	if f.IsZero() {
		return next
	}
	return filteredSink{f: f, next: next}
}

// Profiler instruments a MAL execution: the engine calls Begin/End around
// every instruction and the profiler fans the events out to its sinks
// (wrap a sink in FilterSink to filter its view). It is safe for
// concurrent use by the dataflow scheduler's workers.
type Profiler struct {
	mu    sync.Mutex
	seq   int64
	start time.Time
	sinks []Sink
	// now allows tests to control the clock.
	now func() time.Time
}

// New returns a profiler emitting to the given sinks.
func New(sinks ...Sink) *Profiler {
	return &Profiler{start: time.Now(), now: time.Now, sinks: sinks}
}

// Reset restarts the clock and sequence numbering for a new query.
func (p *Profiler) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq = 0
	p.start = p.now()
}

// SetClock overrides the time source (tests).
func (p *Profiler) SetClock(now func() time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.now = now
	p.start = now()
}

// Span tracks one instruction execution between Begin and End. It is a
// value, not a handle: the engine brackets millions of instructions per
// second, and a heap-allocated span per instruction would dominate the
// hot path's allocation profile.
type Span struct {
	p       *Profiler
	pc      int
	thread  int
	stmt    string
	started time.Time
}

// Begin emits the start event for an instruction and returns a span to
// close with End.
func (p *Profiler) Begin(pc, thread int, stmt string) Span {
	p.mu.Lock()
	started := p.now()
	e := Event{
		Seq:    p.seq,
		State:  StateStart,
		PC:     pc,
		Thread: thread,
		ClkUs:  started.Sub(p.start).Microseconds(),
		Stmt:   stmt,
	}
	p.seq++
	p.emitLocked(e)
	p.mu.Unlock()
	return Span{p: p, pc: pc, thread: thread, stmt: stmt, started: started}
}

// End emits the done event with the measured duration and the supplied
// resource accounting.
func (s Span) End(rssKB, reads, writes int64) {
	p := s.p
	p.mu.Lock()
	nowT := p.now()
	e := Event{
		Seq:    p.seq,
		State:  StateDone,
		PC:     s.pc,
		Thread: s.thread,
		ClkUs:  nowT.Sub(p.start).Microseconds(),
		DurUs:  nowT.Sub(s.started).Microseconds(),
		RSSKB:  rssKB,
		Reads:  reads,
		Writes: writes,
		Stmt:   s.stmt,
	}
	p.seq++
	p.emitLocked(e)
	p.mu.Unlock()
}

func (p *Profiler) emitLocked(e Event) {
	for _, s := range p.sinks {
		s.Emit(e)
	}
}

// OwnedSliceSink accumulates events in memory without locking, for the
// one-profiler-per-run shape: a Profiler serializes all Emit calls
// under its own mutex, so a sink attached to exactly one profiler and
// read only after the run completes needs no lock of its own. Do NOT
// share an OwnedSliceSink between profilers or read it mid-run.
type OwnedSliceSink struct {
	events []Event
}

// NewOwnedSliceSink preallocates for hint events.
func NewOwnedSliceSink(hint int) *OwnedSliceSink {
	if hint < 0 {
		hint = 0
	}
	return &OwnedSliceSink{events: make([]Event, 0, hint)}
}

// Emit implements Sink.
func (s *OwnedSliceSink) Emit(e Event) { s.events = append(s.events, e) }

// Take hands the accumulated events over and resets the sink. Only call
// after the profiled run has completed.
func (s *OwnedSliceSink) Take() []Event {
	evs := s.events
	s.events = nil
	return evs
}

// BatchSink consumes events many at a time — one lock acquisition, one
// write, or one datagram per batch instead of per event. The slice is
// only valid for the duration of the call: the Batcher reuses its
// backing array, so implementations must copy what they keep.
type BatchSink interface {
	EmitBatch([]Event)
}

// Batcher is the hot-path event pipeline: a Sink that accumulates
// events in a reusable buffer and hands them to a BatchSink in slices,
// cutting the per-event allocation and syscall cost of the trace path.
// A batch is delivered when it reaches the configured size, when Flush
// is called (the server flushes at query end), and — when the batcher
// was built with a flush interval — by a deadline armed lazily whenever
// an event lands in an empty buffer, so a stalled query still streams
// while an idle batcher costs nothing. It is safe for concurrent use by
// the dataflow workers; event order is preserved.
//
// The lazy flush is deadline-checked, not timer-driven: the background
// flusher only delivers after verifying under the lock that the armed
// deadline has actually passed. The earlier implementation reset one
// shared time.Timer from Emit, and a timer firing concurrently with
// that Reset left a stale tick in the channel — the flusher then
// delivered a freshly-started batch long before its interval elapsed
// (spurious early flush). Events were never dropped or duplicated
// (delivery always drained the real buffer under the lock), but the
// batching guarantee silently degraded to per-event sends under load.
type Batcher struct {
	sink       BatchSink
	size       int
	flushEvery time.Duration

	mu       sync.Mutex
	buf      []Event
	deadline time.Time // zero when the buffer is empty or no interval is set

	kick      chan struct{} // wakes the flusher when a deadline is armed
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	// Metric cell, nil (no-op) until Instrument attaches a registry.
	mFlushes *metrics.Counter
}

// DefaultBatchSize is the batch size used when NewBatcher is given a
// non-positive one.
const DefaultBatchSize = 64

// NewBatcher wraps sink. batchSize <= 0 selects DefaultBatchSize.
// flushEvery > 0 enables the lazy flush deadline; 0 means batches are
// delivered only on size and explicit Flush/Close.
func NewBatcher(sink BatchSink, batchSize int, flushEvery time.Duration) *Batcher {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	b := &Batcher{
		sink:       sink,
		size:       batchSize,
		flushEvery: flushEvery,
		buf:        make([]Event, 0, batchSize),
		kick:       make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	if flushEvery > 0 {
		b.wg.Add(1)
		go b.flusher()
	}
	return b
}

// flusher delivers batches whose deadline has passed. It sleeps until
// the armed deadline (re-reading it each round: a size- or
// Flush-triggered delivery clears it, a later Emit re-arms it) and
// flushes only when the deadline it observed under the lock has truly
// expired — there is no timer channel to go stale.
func (b *Batcher) flusher() {
	defer b.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		b.mu.Lock()
		deadline := b.deadline
		b.mu.Unlock()
		if deadline.IsZero() {
			select {
			case <-b.kick:
				continue
			case <-b.done:
				return
			}
		}
		if wait := time.Until(deadline); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-b.kick:
				if !timer.Stop() {
					<-timer.C
				}
			case <-b.done:
				if !timer.Stop() {
					<-timer.C
				}
				return
			}
			continue
		}
		b.mu.Lock()
		if !b.deadline.IsZero() && !time.Now().Before(b.deadline) {
			b.deliverLocked()
		}
		b.mu.Unlock()
	}
}

// Emit implements Sink.
func (b *Batcher) Emit(e Event) {
	b.mu.Lock()
	if len(b.buf) == 0 && b.flushEvery > 0 {
		// First event into an empty buffer arms the flush deadline.
		b.deadline = time.Now().Add(b.flushEvery)
		select {
		case b.kick <- struct{}{}:
		default:
		}
	}
	b.buf = append(b.buf, e)
	if len(b.buf) >= b.size {
		b.deliverLocked()
	}
	b.mu.Unlock()
}

// deliverLocked hands the pending batch to the sink, resets the buffer
// for reuse, and disarms the flush deadline. Delivery happens under the
// batcher lock so batches arrive at the sink in event order.
func (b *Batcher) deliverLocked() {
	b.deadline = time.Time{}
	if len(b.buf) == 0 {
		return
	}
	b.sink.EmitBatch(b.buf)
	b.buf = b.buf[:0]
	b.mFlushes.Inc()
}

// Instrument registers the batcher's flush counter
// (stetho_profiler_batch_flushes_total) in the registry. Events are
// counted once per run by the run service, not here. Call before the
// batcher starts receiving events.
func (b *Batcher) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mFlushes = reg.Counter("stetho_profiler_batch_flushes_total")
}

// Flush delivers any pending events immediately.
func (b *Batcher) Flush() {
	b.mu.Lock()
	b.deliverLocked()
	b.mu.Unlock()
}

// Pending reports how many events await delivery (tests, monitoring).
func (b *Batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}

// Close stops the background flusher and delivers the final batch. It
// is idempotent; the batcher must not be used after Close.
func (b *Batcher) Close() error {
	b.closeOnce.Do(func() {
		close(b.done)
		b.wg.Wait()
		b.Flush()
	})
	return nil
}

// RingBuffer is a bounded in-memory sink: the online mode's sampling
// buffer (paper §4.2: "as the trace file grows in size, its content is
// sampled in a buffer"). When full, the oldest events are dropped.
type RingBuffer struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
}

// NewRingBuffer returns a ring holding up to n events.
func NewRingBuffer(n int) *RingBuffer {
	if n < 1 {
		n = 1
	}
	return &RingBuffer{buf: make([]Event, n)}
}

// Emit implements Sink.
func (r *RingBuffer) Emit(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Snapshot returns the buffered events oldest-first.
func (r *RingBuffer) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len reports how many events are buffered.
func (r *RingBuffer) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}
