package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"stethoscope/internal/dot"
	"stethoscope/internal/netproto"
	"stethoscope/internal/profiler"
	"stethoscope/internal/trace"
)

// ServerStream is the per-server state of the textual Stethoscope: the
// dot file under reassembly and one event log, the redirected "trace
// file" of §4.2. A server sends each query's dot file before the query
// runs, so the trace of the newest plan is the log from the newest DOTB
// on, and the sampling buffer is that trace's last window events.
type ServerStream struct {
	Addr string

	mu       sync.Mutex
	name     string
	dotLines []string
	dotDone  bool
	graph    *dot.Graph
	dotErr   error
	dotSeen  int
	events   []profiler.Event
	plan     int // index of the first event after the newest DOTB
	window   int // sampling buffer capacity
}

// ServerName returns the name the server announced with HELO, if any.
func (ss *ServerStream) ServerName() string {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.name
}

// Graph returns the reassembled plan graph once the dot stream
// completed.
func (ss *ServerStream) Graph() (*dot.Graph, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.graphLocked()
}

func (ss *ServerStream) graphLocked() (*dot.Graph, error) {
	if !ss.dotDone {
		return nil, fmt.Errorf("core: dot file for %s not complete", ss.Addr)
	}
	return ss.graph, ss.dotErr
}

// Plan returns the newest plan graph and the trace streamed since its
// DOTB, read under one lock so a later DOTB cannot split them.
func (ss *ServerStream) Plan() (*dot.Graph, *trace.Store, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	g, err := ss.graphLocked()
	if err != nil {
		return nil, nil, err
	}
	return g, trace.FromEvents(ss.events[ss.plan:]), nil
}

// Events returns the whole log, every query's trace in arrival order.
func (ss *ServerStream) Events() []profiler.Event {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return append([]profiler.Event(nil), ss.events...)
}

// Buffer returns the sampling buffer, oldest first: the last window
// events of the newest plan's trace — the input of the online coloring
// algorithm.
func (ss *ServerStream) Buffer() []profiler.Event {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return append([]profiler.Event(nil), ss.events[max(len(ss.events)-ss.window, ss.plan):]...)
}

// Store returns the trace streamed since the newest DOTB.
func (ss *ServerStream) Store() *trace.Store {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return trace.FromEvents(ss.events[ss.plan:])
}

// LiveColoring runs pair-elision over the sampling buffer, the §4.2.1
// online path.
func (ss *ServerStream) LiveColoring() Coloring {
	return PairElision(ss.Buffer())
}

// Counts reports how many dot lines and events arrived (monitoring and
// tests).
func (ss *ServerStream) Counts() (dotLines, events int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.dotSeen, len(ss.events)
}

// TextualStethoscope is the UDP-listening client of §3.2: "It uses a UDP
// socket interface to connect to MonetDB server, for receiving the
// MonetDB execution trace. The textual Stethoscope can connect to
// multiple MonetDB servers at the same time to receive execution traces
// from all (distributed) sources. Its filter options allow for selective
// tracing of execution states on each of the connected servers." The
// filter is the server's FILTER command: each server sends only what
// passes, so the client keeps everything it receives.
type TextualStethoscope struct {
	listener *netproto.Listener
	// stop unregisters the close-on-cancel callback of the context.
	stop func() bool

	mu      sync.Mutex
	servers map[string]*ServerStream
	window  int
	onEvent func(addr string, e profiler.Event)
}

// SetOnEvent installs an observer called for every accepted event — the
// tee that redirects the online stream into a trace file, as the §4.2
// workflow describes. Safe to call while traffic flows.
func (ts *TextualStethoscope) SetOnEvent(fn func(addr string, e profiler.Event)) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.onEvent = fn
}

// StartTextualContext binds the UDP listener ("127.0.0.1:0" picks a free
// port); window is the per-server sampling buffer capacity. When ctx is
// canceled the listener shuts down and no further events are accepted.
// Streams received so far remain readable.
func StartTextualContext(ctx context.Context, addr string, window int) (*TextualStethoscope, error) {
	if window <= 0 {
		window = 1024
	}
	ts := &TextualStethoscope{
		servers: map[string]*ServerStream{},
		window:  window,
	}
	l, err := netproto.Listen(addr, ts.handle)
	if err != nil {
		return nil, err
	}
	ts.listener = l
	ts.stop = context.AfterFunc(ctx, func() { l.Close() })
	return ts, nil
}

// Addr returns the UDP address servers should stream to.
func (ts *TextualStethoscope) Addr() string { return ts.listener.Addr() }

// Close stops the listener and unregisters it from the context.
func (ts *TextualStethoscope) Close() error {
	ts.stop()
	return ts.listener.Close()
}

// Servers lists the source addresses seen so far.
func (ts *TextualStethoscope) Servers() []string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]string, 0, len(ts.servers))
	for a := range ts.servers {
		out = append(out, a)
	}
	return out
}

// Server returns the stream state for one source.
func (ts *TextualStethoscope) Server(addr string) (*ServerStream, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ss, ok := ts.servers[addr]
	return ss, ok
}

func (ts *TextualStethoscope) stream(addr string) *ServerStream {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ss, ok := ts.servers[addr]
	if !ok {
		ss = &ServerStream{Addr: addr, window: ts.window}
		ts.servers[addr] = ss
	}
	return ss
}

// handle is the monitoring thread of §4.2: it demultiplexes dot-file
// content from trace content arriving on the same UDP stream.
func (ts *TextualStethoscope) handle(from string, m netproto.Msg) {
	ss := ts.stream(from)
	switch m.Kind {
	case netproto.MsgHello:
		ss.mu.Lock()
		ss.name = m.Payload
		ss.mu.Unlock()
	case netproto.MsgDotBegin:
		ss.mu.Lock()
		ss.dotLines = ss.dotLines[:0]
		ss.dotDone = false
		ss.graph = nil
		ss.dotErr = nil
		ss.plan = len(ss.events)
		ss.mu.Unlock()
	case netproto.MsgDotLine:
		ss.mu.Lock()
		ss.dotLines = append(ss.dotLines, m.Payload)
		ss.dotSeen++
		ss.mu.Unlock()
	case netproto.MsgDotEnd:
		ss.mu.Lock()
		text := strings.Join(ss.dotLines, "\n")
		g, err := dot.Parse(text)
		ss.graph, ss.dotErr = g, err
		ss.dotDone = true
		ss.mu.Unlock()
	case netproto.MsgEvent:
		e, err := profiler.UnmarshalEvent(m.Payload)
		if err != nil {
			return
		}
		ss.mu.Lock()
		ss.events = append(ss.events, e)
		ss.mu.Unlock()
		ts.mu.Lock()
		onEvent := ts.onEvent
		ts.mu.Unlock()
		if onEvent != nil {
			onEvent(from, e)
		}
	}
}
