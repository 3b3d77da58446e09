package core

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"stethoscope/internal/netproto"
	"stethoscope/internal/profiler"
)

func waitUntil(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestE8OnlineStreamDotAndTrace(t *testing.T) {
	ts, err := StartTextualContext(context.Background(), "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	streamer, err := netproto.Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()

	dotText, traceText := buildFixture(t)
	streamer.Hello("mserver-test")
	streamer.SendDot("plan", dotText)

	waitUntil(t, func() bool {
		for _, addr := range ts.Servers() {
			ss, _ := ts.Server(addr)
			if _, err := ss.Graph(); err == nil {
				return true
			}
		}
		return false
	}, "dot reassembly")

	// Stream trace events through a profiler wired to the UDP sink.
	prof := profiler.New(streamer)
	prof.Begin(0, 0, "X_0:bat[:int] := sql.bind(\"sys\", \"lineitem\", \"l_partkey\", 0);").End(1, 2, 3)
	prof.Begin(1, 1, "X_1:bat[:oid] := algebra.thetaselect(X_0, \"=\", 1);").End(4, 5, 6)

	var addr string
	waitUntil(t, func() bool {
		for _, a := range ts.Servers() {
			ss, _ := ts.Server(a)
			if len(ss.Events()) >= 4 {
				addr = a
				return true
			}
		}
		return false
	}, "trace events")

	ss, _ := ts.Server(addr)
	if ss.ServerName() != "mserver-test" {
		t.Errorf("server name = %q", ss.ServerName())
	}
	// Build a session from the streamed content.
	g, err := ss.Graph()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(g, ss.Store(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.Graph.Nodes) != 4 {
		t.Errorf("online session nodes = %d", len(sess.Graph.Nodes))
	}
	// Live coloring runs over the sampling buffer without error.
	_ = ss.LiveColoring()
	_ = traceText
}

func TestE8MultiServerFilter(t *testing.T) {
	ts, err := StartTextualContext(context.Background(), "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	s1, err := netproto.Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := netproto.Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	s1.Hello("server-1")
	s2.Hello("server-2")
	waitUntil(t, func() bool { return len(ts.Servers()) == 2 }, "two servers")

	// Per-server filters, applied where the server's FILTER applies them:
	// server-1 sends only done events.
	var s1addr, s2addr string
	for _, a := range ts.Servers() {
		ss, _ := ts.Server(a)
		if ss.ServerName() == "server-1" {
			s1addr = a
		} else {
			s2addr = a
		}
	}
	ss1, _ := ts.Server(s1addr)

	p1 := profiler.New(profiler.FilterSink(profiler.Filter{States: []profiler.State{profiler.StateDone}}, s1))
	p2 := profiler.New(s2)
	for i := 0; i < 5; i++ {
		p1.Begin(i, 0, "a.b();").End(0, 0, 0)
		p2.Begin(i, 0, "a.b();").End(0, 0, 0)
	}

	waitUntil(t, func() bool {
		ss2, _ := ts.Server(s2addr)
		return len(ss2.Events()) == 10 && len(ss1.Events()) == 5
	}, "filtered streams")

	for _, e := range ss1.Events() {
		if e.State != profiler.StateDone {
			t.Fatalf("filtered stream leaked %v", e.State)
		}
	}
}

func TestOnEventTee(t *testing.T) {
	ts, err := StartTextualContext(context.Background(), "127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	var mu sync.Mutex
	var teed []profiler.Event
	ts.SetOnEvent(func(addr string, e profiler.Event) {
		mu.Lock()
		teed = append(teed, e)
		mu.Unlock()
	})

	s, err := netproto.Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	prof := profiler.New(s)
	prof.Begin(0, 0, "s();").End(0, 0, 0)

	waitUntil(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(teed) == 2
	}, "teed events")
}

func TestRingBufferSampling(t *testing.T) {
	ts, err := StartTextualContext(context.Background(), "127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	s, err := netproto.Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	prof := profiler.New(s)
	for i := 0; i < 10; i++ {
		prof.Begin(i, 0, "s();").End(0, 0, 0)
	}
	waitUntil(t, func() bool {
		for _, a := range ts.Servers() {
			ss, _ := ts.Server(a)
			if len(ss.Events()) == 20 {
				return true
			}
		}
		return false
	}, "all events")
	for _, a := range ts.Servers() {
		ss, _ := ts.Server(a)
		if got := len(ss.Buffer()); got != 4 {
			t.Errorf("sampling buffer holds %d, want 4 (capacity)", got)
		}
		// Full log retains everything.
		if got := len(ss.Events()); got != 20 {
			t.Errorf("event log holds %d", got)
		}
	}
}

// TestCancelClosesListener: canceling the context shuts the listener
// down, and the log received before stays readable.
func TestCancelClosesListener(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ts, err := StartTextualContext(ctx, "127.0.0.1:0", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	s, err := netproto.Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	prof := profiler.New(s)
	logged := func() int {
		n := 0
		for _, a := range ts.Servers() {
			ss, _ := ts.Server(a)
			_, n = ss.Counts()
		}
		return n
	}
	prof.Begin(0, 0, "s();").End(0, 0, 0)
	waitUntil(t, func() bool { return logged() == 2 }, "events before cancel")
	cancel()
	// The close runs on its own goroutine: probe until an event sent
	// after it is no longer received.
	waitUntil(t, func() bool {
		before := logged()
		prof.Begin(0, 0, "s();").End(0, 0, 0)
		time.Sleep(20 * time.Millisecond)
		return logged() == before
	}, "the listener to close")
	if n := logged(); n < 2 {
		t.Fatalf("log holds %d events after cancel, want the 2 received before", n)
	}
}

// newTextual is a textual Stethoscope without a socket: tests hand its
// handler decoded datagrams directly.
func newTextual(window int) *TextualStethoscope {
	return &TextualStethoscope{servers: map[string]*ServerStream{}, window: window}
}

func seqsOf(evs []profiler.Event) []int64 {
	out := make([]int64, len(evs))
	for i, e := range evs {
		out[i] = e.Seq
	}
	return out
}

// TestSamplingWindow: the sampling buffer is the newest window events
// of the log, oldest first, below capacity as well as past it, and
// never reaches back past the newest DOTB; the analysed trace is the
// log from that DOTB on, and the log keeps everything.
func TestSamplingWindow(t *testing.T) {
	ts := newTextual(3)
	evt := func(seqs ...int64) {
		for _, seq := range seqs {
			ts.handle("src", netproto.Msg{Kind: netproto.MsgEvent, Payload: profiler.Event{Seq: seq}.Marshal()})
		}
	}
	check := func(what string, buffer, analysed []int64, logged int) {
		t.Helper()
		ss, _ := ts.Server("src")
		if got := seqsOf(ss.Buffer()); !slices.Equal(got, buffer) {
			t.Errorf("%s: buffer %v, want %v", what, got, buffer)
		}
		if got := seqsOf(ss.Store().Events()); !slices.Equal(got, analysed) {
			t.Errorf("%s: analysed trace %v, want %v", what, got, analysed)
		}
		if got := len(ss.Events()); got != logged {
			t.Errorf("%s: log holds %d events, want %d", what, got, logged)
		}
	}
	evt(0, 1)
	check("below capacity", []int64{0, 1}, []int64{0, 1}, 2)
	ts.handle("src", netproto.Msg{Kind: netproto.MsgDotBegin, Payload: "q2"})
	check("at a DOTB", []int64{}, []int64{}, 2)
	evt(2)
	check("one event after a DOTB", []int64{2}, []int64{2}, 3)
	evt(3, 4, 5, 6)
	check("past capacity", []int64{4, 5, 6}, []int64{2, 3, 4, 5, 6}, 7)
	ts.handle("src", netproto.Msg{Kind: netproto.MsgDotBegin, Payload: "q3"})
	evt(7, 8)
	check("a second DOTB", []int64{7, 8}, []int64{7, 8}, 9)
}

// FuzzTextualStream drives arbitrary datagram sequences — NUL-separated
// in the input — through the listener's dispatch into the handler of a
// textual Stethoscope with a small window. Nothing may panic, and after
// every datagram the sampling buffer is the analysed trace's last
// window events, the analysed trace is a suffix of the log, and Counts
// counts the log.
func FuzzTextualStream(f *testing.F) {
	dotText, traceText := buildFixture(f)
	var stream [][]byte
	send := func(kind netproto.MsgKind, payload string) {
		stream = append(stream, netproto.Encode(netproto.Msg{Kind: kind, Payload: payload}))
	}
	send(netproto.MsgHello, "mserver")
	for q, plan := range []string{"q1", "q2"} {
		send(netproto.MsgDotBegin, plan)
		for _, line := range strings.Split(dotText, "\n") {
			send(netproto.MsgDotLine, line)
		}
		send(netproto.MsgDotEnd, "")
		lines := strings.Split(strings.TrimSpace(traceText), "\n")
		if q == 0 {
			send(netproto.MsgEventBatch, strings.Join(lines, "\n"))
			continue
		}
		for _, line := range lines {
			send(netproto.MsgEvent, line)
		}
	}
	f.Add(uint8(3), bytes.Join(stream, []byte{0}))
	f.Add(uint8(0), []byte("EVT event=1 status=start pc=0\x00DOTB q\x00EVTB event=2 status=done pc=0\n\nevent=3 status=start pc=1"))
	f.Fuzz(func(t *testing.T, window uint8, data []byte) {
		ts := newTextual(int(window%8) + 1)
		for _, dgram := range bytes.Split(data, []byte{0}) {
			netproto.Dispatch(dgram, func(m netproto.Msg) { ts.handle("src", m) })
			ss, ok := ts.Server("src")
			if !ok {
				continue
			}
			buf, analysed, log := ss.Buffer(), ss.Store().Events(), ss.Events()
			if want := min(len(analysed), ts.window); len(buf) != want || !slices.Equal(buf, analysed[len(analysed)-want:]) {
				t.Fatalf("buffer %v is not the last %d events of the analysed trace %v", seqsOf(buf), want, seqsOf(analysed))
			}
			if len(analysed) > len(log) || !slices.Equal(analysed, log[len(log)-len(analysed):]) {
				t.Fatalf("analysed trace %v is not a suffix of the log %v", seqsOf(analysed), seqsOf(log))
			}
			if _, n := ss.Counts(); n != len(log) {
				t.Fatalf("Counts reports %d events, the log holds %d", n, len(log))
			}
		}
	})
}
