package core

import (
	"context"
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
