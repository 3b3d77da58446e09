package profiler

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestEventMarshalRoundTrip(t *testing.T) {
	e := Event{
		Seq: 12, State: StateDone, PC: 3, Thread: 2,
		ClkUs: 1200, DurUs: 345, RSSKB: 4096, Reads: 100, Writes: 50,
		Stmt: `X_5:bat[:oid] := algebra.thetaselect(X_1, "=", 1);`,
	}
	line := e.Marshal()
	got, err := UnmarshalEvent(line)
	if err != nil {
		t.Fatalf("Unmarshal(%q): %v", line, err)
	}
	if got != e {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, e)
	}
}

func TestEventMarshalQuickProperty(t *testing.T) {
	f := func(seq int64, pc, thread uint16, dur int64, stmt string) bool {
		e := Event{
			Seq: seq, State: StateStart, PC: int(pc), Thread: int(thread),
			DurUs: dur, Stmt: stmt,
		}
		got, err := UnmarshalEvent(e.Marshal())
		return err == nil && got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	bad := []string{
		"",
		"event=1",                   // missing status, pc
		"event=x status=start pc=1", // bad number
		"event=1 status=limbo pc=1", // bad state
		"event=1 status=start pc=1 stmt=unquoted",
		`event=1 status=start pc=1 stmt="unterminated`,
		"garbage",
	}
	for _, line := range bad {
		if _, err := UnmarshalEvent(line); err == nil {
			t.Errorf("UnmarshalEvent(%q) succeeded, want error", line)
		}
	}
}

func TestUnmarshalIgnoresUnknownKeys(t *testing.T) {
	got, err := UnmarshalEvent(`event=1 status=done pc=2 future=42 stmt="x"`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 1 || got.PC != 2 || got.Stmt != "x" {
		t.Errorf("got %+v", got)
	}
}

func TestProfilerBeginEndSequence(t *testing.T) {
	sink := NewOwnedSliceSink(0)
	p := New(sink)
	clock := time.Unix(1000, 0)
	p.SetClock(func() time.Time { return clock })

	sp := p.Begin(0, 1, "X_0 := algebra.select(...)")
	clock = clock.Add(5 * time.Millisecond)
	sp.End(128, 1000, 10)

	evs := sink.Take()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].State != StateStart || evs[1].State != StateDone {
		t.Errorf("states = %v %v", evs[0].State, evs[1].State)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Errorf("seqs = %d %d", evs[0].Seq, evs[1].Seq)
	}
	if evs[1].DurUs != 5000 {
		t.Errorf("dur = %d us, want 5000", evs[1].DurUs)
	}
	if evs[1].Reads != 1000 || evs[1].Writes != 10 || evs[1].RSSKB != 128 {
		t.Errorf("accounting = %+v", evs[1])
	}
}

func TestProfilerReset(t *testing.T) {
	sink := NewOwnedSliceSink(0)
	p := New(sink)
	p.Begin(0, 0, "s").End(0, 0, 0)
	p.Reset()
	p.Begin(1, 0, "s").End(0, 0, 0)
	evs := sink.Take()
	if evs[2].Seq != 0 {
		t.Errorf("post-reset seq = %d", evs[2].Seq)
	}
}

func TestFilterStates(t *testing.T) {
	sink := NewOwnedSliceSink(0)
	p := New(FilterSink(Filter{States: []State{StateDone}}, sink))
	p.Begin(0, 0, "s").End(0, 0, 0)
	evs := sink.Take()
	if len(evs) != 1 || evs[0].State != StateDone {
		t.Errorf("filtered events = %+v", evs)
	}
}

// TestFilterModules: FilterSink derives each event's module from its
// statement, and only the filtered sink loses events — a sibling sink
// sees the full stream.
func TestFilterModules(t *testing.T) {
	filtered, full := NewOwnedSliceSink(0), NewOwnedSliceSink(0)
	p := New(FilterSink(Filter{Modules: []string{"algebra"}}, filtered), full)
	p.Begin(0, 0, "X_1 := algebra.select(X_0);").End(0, 0, 0)
	p.Begin(1, 0, "X_2 := sql.bind(X_1);").End(0, 0, 0)
	if got := len(filtered.Take()); got != 2 {
		t.Errorf("module filter kept %d events, want 2", got)
	}
	if got := len(full.Take()); got != 4 {
		t.Errorf("sibling sink saw %d events, want all 4", got)
	}
}

func TestFilterMinDuration(t *testing.T) {
	sink := NewOwnedSliceSink(0)
	p := New(FilterSink(Filter{MinDurUs: 1000}, sink))
	clock := time.Unix(0, 0)
	p.SetClock(func() time.Time { return clock })
	// Fast instruction: start passes, done dropped.
	sp := p.Begin(0, 0, "fast")
	sp.End(0, 0, 0)
	// Slow instruction: both pass.
	sp = p.Begin(1, 0, "slow")
	clock = clock.Add(2 * time.Millisecond)
	sp.End(0, 0, 0)
	evs := sink.Take()
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3", len(evs))
	}
	for _, e := range evs {
		if e.State == StateDone && e.Stmt == "fast" {
			t.Error("fast done event not filtered")
		}
	}
}

func TestFilterPCs(t *testing.T) {
	f := Filter{PCs: []int{2, 4}}
	if f.Pass(Event{PC: 3}, "") {
		t.Error("pc 3 passed filter {2,4}")
	}
	if !f.Pass(Event{PC: 4}, "") {
		t.Error("pc 4 blocked by filter {2,4}")
	}
}

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"X_3:bat[:oid] := algebra.select(X_1);": "algebra",
		"sql.exportResult(X_9);":                "sql",
		"(X_1, X_2) := group.subgroup(X_0);":    "group",
		"weird":                                 "",
	}
	for stmt, want := range cases {
		if got := ModuleOf(stmt); got != want {
			t.Errorf("ModuleOf(%q) = %q, want %q", stmt, got, want)
		}
	}
}

func TestCallOf(t *testing.T) {
	cases := map[string]string{
		"X_3:bat[:oid] := algebra.select(X_1);": "algebra.select",
		"sql.exportResult(X_9);":                "sql.exportResult",
		"(X_1, X_2) := group.subgroup(X_0);":    "group.subgroup",
		"X_7 := X_6;":                           "",
		"weird":                                 "",
	}
	for stmt, want := range cases {
		if got := CallOf(stmt); got != want {
			t.Errorf("CallOf(%q) = %q, want %q", stmt, got, want)
		}
	}
}

func TestConcurrentEmit(t *testing.T) {
	sink := NewOwnedSliceSink(0)
	p := New(sink)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				p.Begin(i, w, "s").End(0, 0, 0)
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	evs := sink.Take()
	if len(evs) != 1600 {
		t.Fatalf("events = %d, want 1600", len(evs))
	}
	// Sequence numbers must be unique.
	seen := map[int64]bool{}
	for _, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// recordingBatchSink copies every delivered batch and counts deliveries.
type recordingBatchSink struct {
	mu      sync.Mutex
	events  []Event
	batches int
}

func (s *recordingBatchSink) EmitBatch(evs []Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, evs...)
	s.batches++
}

func (s *recordingBatchSink) snapshot() ([]Event, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...), s.batches
}

func TestBatcherDeliversOnSize(t *testing.T) {
	sink := &recordingBatchSink{}
	b := NewBatcher(sink, 4, 0)
	defer b.Close()
	for i := 0; i < 10; i++ {
		b.Emit(Event{Seq: int64(i)})
	}
	evs, batches := sink.snapshot()
	if len(evs) != 8 || batches != 2 {
		t.Fatalf("delivered %d events in %d batches, want 8 in 2", len(evs), batches)
	}
	b.mu.Lock()
	pending := len(b.buf)
	b.mu.Unlock()
	if pending != 2 {
		t.Fatalf("pending = %d, want 2", pending)
	}
	b.Flush()
	evs, batches = sink.snapshot()
	if len(evs) != 10 || batches != 3 {
		t.Fatalf("after flush: %d events in %d batches", len(evs), batches)
	}
	// Order preserved.
	for i, e := range evs {
		if e.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

func TestBatcherCloseDeliversTail(t *testing.T) {
	sink := &recordingBatchSink{}
	b := NewBatcher(sink, 100, 0)
	b.Emit(Event{Seq: 7})
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	evs, _ := sink.snapshot()
	if len(evs) != 1 || evs[0].Seq != 7 {
		t.Fatalf("tail not delivered: %v", evs)
	}
}

func TestBatcherPeriodicFlush(t *testing.T) {
	sink := &recordingBatchSink{}
	b := NewBatcher(sink, 1<<20, time.Millisecond)
	defer b.Close()
	b.Emit(Event{Seq: 1})
	deadline := time.Now().Add(2 * time.Second)
	for {
		if evs, _ := sink.snapshot(); len(evs) == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic flush never delivered the event")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBatcherConcurrentEmitters(t *testing.T) {
	sink := &recordingBatchSink{}
	b := NewBatcher(sink, 16, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Emit(Event{Seq: int64(w*100 + i)})
			}
		}(w)
	}
	wg.Wait()
	b.Close()
	evs, _ := sink.snapshot()
	if len(evs) != 800 {
		t.Fatalf("events = %d, want 800", len(evs))
	}
	seen := map[int64]bool{}
	for _, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// TestBatcherTimerRaceLossless is the regression test for the lazy
// flush deadline: a single emitter races the interval flusher and a
// hostile concurrent Flush caller at an interval short enough that the
// deadline re-arms thousands of times. No event may be dropped or
// duplicated, and order must be preserved — under -race this also
// proves the Emit/Flush/Close paths share no unsynchronized state.
func TestBatcherTimerRaceLossless(t *testing.T) {
	const total = 5000
	sink := &recordingBatchSink{}
	b := NewBatcher(sink, 8, 50*time.Microsecond)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // hostile flusher
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				b.Flush()
			}
		}
	}()
	for i := 0; i < total; i++ {
		b.Emit(Event{Seq: int64(i)})
		if i%97 == 0 {
			time.Sleep(60 * time.Microsecond) // let the deadline expire mid-stream
		}
	}
	close(stop)
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	evs, _ := sink.snapshot()
	if len(evs) != total {
		t.Fatalf("delivered %d events, want %d (dropped or duplicated)", len(evs), total)
	}
	for i, e := range evs {
		if e.Seq != int64(i) {
			t.Fatalf("event %d has seq %d: order broken or event duplicated", i, e.Seq)
		}
	}
}

// TestBatcherNoSpuriousEarlyFlush pins the fixed behavior itself: after
// a deadline-triggered delivery, a fresh event must not be flushed
// before its own interval elapses (the old timer Reset race delivered
// it immediately via the stale tick). An early delivery only fails the
// test when the clock confirms the interval had not elapsed, so a
// descheduled goroutine on a loaded machine cannot turn a legitimate
// deadline flush into a false alarm.
func TestBatcherNoSpuriousEarlyFlush(t *testing.T) {
	const interval = 250 * time.Millisecond
	sink := &recordingBatchSink{}
	b := NewBatcher(sink, 1<<20, interval)
	defer b.Close()
	// First event: wait out its deadline flush — the exact state the
	// old implementation left a stale timer tick behind in.
	b.Emit(Event{Seq: 0})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if evs, _ := sink.snapshot(); len(evs) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deadline flush never fired")
		}
		time.Sleep(time.Millisecond)
	}
	// Second event immediately after: it must still be pending while
	// its own interval has provably not elapsed.
	emitted := time.Now()
	b.Emit(Event{Seq: 1})
	time.Sleep(10 * time.Millisecond)
	evs, _ := sink.snapshot()
	if elapsed := time.Since(emitted); len(evs) != 1 && elapsed < interval {
		t.Fatalf("event flushed after %v, %v before its deadline (spurious flush)", elapsed, interval-elapsed)
	}
}

// TestBatcherIdleStartsNoGoroutine: the flush deadline is a timer, so
// a batcher that holds no events runs nothing.
func TestBatcherIdleStartsNoGoroutine(t *testing.T) {
	const n = 100
	before := runtime.NumGoroutine()
	bs := make([]*Batcher, n)
	for i := range bs {
		bs[i] = NewBatcher(&recordingBatchSink{}, 0, time.Hour)
	}
	if grew := runtime.NumGoroutine() - before; grew >= n/2 {
		t.Errorf("%d idle batchers started %d goroutines", n, grew)
	}
	for _, b := range bs {
		b.Close()
	}
}

// closeWatchSink counts the batches that arrive after its closed flag
// is set.
type closeWatchSink struct {
	closed atomic.Bool
	late   atomic.Int64
}

func (s *closeWatchSink) EmitBatch([]Event) {
	if s.closed.Load() {
		s.late.Add(1)
	}
}

// TestBatcherNoDeliveryAfterClose: Close with a deadline armed, at an
// interval short enough that the timer often fires while Close runs,
// delivers the tail itself; a firing that loses the race finds nothing
// to deliver.
func TestBatcherNoDeliveryAfterClose(t *testing.T) {
	const rounds = 2000
	sinks := make([]*closeWatchSink, rounds)
	for i := range sinks {
		sink := &closeWatchSink{}
		sinks[i] = sink
		b := NewBatcher(sink, 0, time.Duration(i%50)*time.Microsecond+time.Microsecond)
		b.Emit(Event{Seq: int64(i)})
		if i%3 == 0 {
			time.Sleep(time.Duration(i%40) * time.Microsecond)
		}
		b.Close()
		sink.closed.Store(true)
	}
	time.Sleep(20 * time.Millisecond) // let every armed timer fire
	for i, sink := range sinks {
		if n := sink.late.Load(); n != 0 {
			t.Fatalf("round %d: %d batches delivered after Close returned", i, n)
		}
	}
}
