package netproto

import (
	"strings"
	"sync"
	"testing"
	"time"

	"stethoscope/internal/profiler"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msgs := []Msg{
		{Kind: MsgEvent, Payload: `event=1 status=start pc=0 stmt="x"`},
		{Kind: MsgDotBegin, Payload: "plan1"},
		{Kind: MsgDotLine, Payload: `  n0 [label="bind"];`},
		{Kind: MsgDotEnd},
		{Kind: MsgHello, Payload: "server-a"},
	}
	for _, m := range msgs {
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("Decode(Encode(%+v)): %v", m, err)
		}
		if got != m {
			t.Errorf("round trip %+v -> %+v", m, got)
		}
	}
}

func TestDecodeRejectsUnknownTag(t *testing.T) {
	if _, err := Decode([]byte("WHAT is this")); err == nil {
		t.Error("unknown tag accepted")
	}
}

// collector gathers messages with synchronization for test assertions.
type collector struct {
	mu   sync.Mutex
	msgs []Msg
	from []string
}

func (c *collector) handle(from string, m Msg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m)
	c.from = append(c.from, from)
}

func (c *collector) waitFor(t *testing.T, n int) []Msg {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		if len(c.msgs) >= n {
			out := append([]Msg(nil), c.msgs...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t.Fatalf("timed out waiting for %d messages, have %d", n, len(c.msgs))
	return nil
}

func TestUDPEventStream(t *testing.T) {
	var col collector
	l, err := Listen("127.0.0.1:0", col.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	streamer, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()

	prof := profiler.New(streamer)
	prof.Begin(0, 1, "stmt-a").End(0, 10, 5)
	prof.Begin(1, 2, "stmt-b").End(0, 20, 6)

	msgs := col.waitFor(t, 4)
	for _, m := range msgs {
		if m.Kind != MsgEvent {
			t.Fatalf("unexpected kind %v", m.Kind)
		}
		if _, err := profiler.UnmarshalEvent(m.Payload); err != nil {
			t.Fatalf("payload unparseable: %v", err)
		}
	}
	if streamer.Dropped() != 0 {
		t.Errorf("dropped = %d", streamer.Dropped())
	}
}

func TestUDPDotTransfer(t *testing.T) {
	var col collector
	l, err := Listen("127.0.0.1:0", col.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	streamer, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()

	dotText := "digraph g {\n  n0;\n  n1;\n  n0 -> n1;\n}"
	streamer.SendDot("myplan", dotText)

	// begin + 5 lines + end
	msgs := col.waitFor(t, 7)
	if msgs[0].Kind != MsgDotBegin || msgs[0].Payload != "myplan" {
		t.Fatalf("first = %+v", msgs[0])
	}
	if msgs[len(msgs)-1].Kind != MsgDotEnd {
		t.Fatalf("last = %+v", msgs[len(msgs)-1])
	}
	var lines []string
	for _, m := range msgs[1 : len(msgs)-1] {
		if m.Kind != MsgDotLine {
			t.Fatalf("mid message %+v", m)
		}
		lines = append(lines, m.Payload)
	}
	if strings.Join(lines, "\n") != dotText {
		t.Errorf("reassembled dot:\n%s", strings.Join(lines, "\n"))
	}
}

func TestMultipleServersOneListener(t *testing.T) {
	var col collector
	l, err := Listen("127.0.0.1:0", col.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	s1, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	s1.Hello("server-1")
	s2.Hello("server-2")
	col.waitFor(t, 2)

	col.mu.Lock()
	defer col.mu.Unlock()
	if col.from[0] == col.from[1] {
		t.Error("two servers share a source address")
	}
}

func TestListenerCloseStopsLoop(t *testing.T) {
	var col collector
	l, err := Listen("127.0.0.1:0", col.handle)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Double close of conn would error; Close already returned. Sending
	// to the closed socket must not panic the test process.
	if s, err := Dial("127.0.0.1:1"); err == nil {
		s.Emit(profiler.Event{Stmt: "x"})
		s.Close()
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial("not-an-address"); err == nil {
		t.Error("bad address accepted")
	}
	if _, err := Listen("not-an-address", func(string, Msg) {}); err == nil {
		t.Error("bad listen address accepted")
	}
}

// TestListenerCloseIdempotent pins the guarantee online monitoring
// relies on: a listener shut down by a context watcher and again by an
// explicit Close (possibly concurrently) must not panic.
func TestListenerCloseIdempotent(t *testing.T) {
	l, err := Listen("127.0.0.1:0", func(string, Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Close()
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("repeated Close: %v", err)
	}
}

func TestEmitBatchCoalescesAndListenerExpands(t *testing.T) {
	var mu sync.Mutex
	var got []profiler.Event
	l, err := Listen("127.0.0.1:0", func(from string, m Msg) {
		if m.Kind != MsgEvent {
			t.Errorf("listener surfaced kind %v; batches must arrive expanded", m.Kind)
			return
		}
		e, err := profiler.UnmarshalEvent(m.Payload)
		if err != nil {
			t.Errorf("bad expanded event: %v", err)
			return
		}
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	batch := make([]profiler.Event, 50)
	for i := range batch {
		batch[i] = profiler.Event{Seq: int64(i), State: profiler.StateDone, PC: i,
			Stmt: `X_5:bat[:oid] := algebra.thetaselect(X_1, "=", 1);`}
	}
	s.EmitBatch(batch)

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == len(batch) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d batched events", n, len(batch))
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, e := range got {
		if e.Seq != int64(i) || e.PC != i {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
	}
}

func TestPackEventsSplitsOversizedBatches(t *testing.T) {
	big := strings.Repeat("y", 2048)
	evs := make([]profiler.Event, 100)
	for i := range evs {
		evs[i] = profiler.Event{Seq: int64(i), Stmt: big}
	}
	var payloads []string
	packEvents(evs, func(p string) { payloads = append(payloads, p) })
	if len(payloads) < 2 {
		t.Fatalf("expected multiple datagrams, got %d", len(payloads))
	}
	total := 0
	for _, p := range payloads {
		if len(p) > MaxDatagram {
			t.Fatalf("payload of %d bytes exceeds MaxDatagram", len(p))
		}
		for _, line := range strings.Split(p, "\n") {
			e, err := profiler.UnmarshalEvent(line)
			if err != nil {
				t.Fatal(err)
			}
			if e.Seq != int64(total) {
				t.Fatalf("event %d packed out of order (seq %d)", total, e.Seq)
			}
			total++
		}
	}
	if total != len(evs) {
		t.Fatalf("packed %d events, want %d", total, len(evs))
	}
	// The empty batch emits nothing.
	packEvents(nil, func(string) { t.Fatal("empty batch emitted a datagram") })
}
