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
// dot file under reassembly, the sampled event buffer, and the full
// event log (the redirected "trace file" of §4.2).
type ServerStream struct {
	Addr string

	mu        sync.Mutex
	name      string
	dotLines  []string
	dotName   string
	dotDone   bool
	events    []profiler.Event
	ring      *profiler.RingBuffer
	filter    profiler.Filter
	graph     *dot.Graph
	dotErr    error
	dotSeen   int
	eventSeen int
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
	if !ss.dotDone {
		return nil, fmt.Errorf("core: dot file for %s not complete", ss.Addr)
	}
	return ss.graph, ss.dotErr
}

// Events returns the accumulated trace.
func (ss *ServerStream) Events() []profiler.Event {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return append([]profiler.Event(nil), ss.events...)
}

// Buffer returns the sampling ring's current window — the input of the
// online coloring algorithm.
func (ss *ServerStream) Buffer() []profiler.Event {
	return ss.ring.Snapshot()
}

// Store builds a trace store over everything received so far.
func (ss *ServerStream) Store() *trace.Store {
	return trace.FromEvents(ss.Events())
}

// LiveColoring runs pair-elision over the sampling buffer, the §4.2.1
// online path.
func (ss *ServerStream) LiveColoring() Coloring {
	return PairElision(ss.Buffer())
}

// SetFilter installs a client-side display filter on this stream.
func (ss *ServerStream) SetFilter(f profiler.Filter) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.filter = f
}

// Counts reports how many dot lines and events arrived (monitoring and
// tests).
func (ss *ServerStream) Counts() (dotLines, events int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.dotSeen, ss.eventSeen
}

// TextualStethoscope is the UDP-listening client of §3.2: "It uses a UDP
// socket interface to connect to MonetDB server, for receiving the
// MonetDB execution trace. The textual Stethoscope can connect to
// multiple MonetDB servers at the same time to receive execution traces
// from all (distributed) sources. Its filter options allow for selective
// tracing of execution states on each of the connected servers."
type TextualStethoscope struct {
	listener *netproto.Listener
	// stop releases the context watcher when the stethoscope is closed
	// before its context is canceled.
	stop     chan struct{}
	stopOnce sync.Once

	mu      sync.Mutex
	servers map[string]*ServerStream
	ringCap int
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
// port); ringCap is the per-server sampling buffer capacity. When ctx is
// canceled the listener shuts down and no further events are accepted.
// Streams received so far remain readable.
func StartTextualContext(ctx context.Context, addr string, ringCap int) (*TextualStethoscope, error) {
	if ringCap <= 0 {
		ringCap = 1024
	}
	ts := &TextualStethoscope{
		servers: map[string]*ServerStream{},
		ringCap: ringCap,
		stop:    make(chan struct{}),
	}
	l, err := netproto.Listen(addr, ts.handle)
	if err != nil {
		return nil, err
	}
	ts.listener = l
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				l.Close()
			case <-ts.stop:
			}
		}()
	}
	return ts, nil
}

// Addr returns the UDP address servers should stream to.
func (ts *TextualStethoscope) Addr() string { return ts.listener.Addr() }

// Close stops the listener and releases the context watcher.
func (ts *TextualStethoscope) Close() error {
	ts.stopOnce.Do(func() { close(ts.stop) })
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
		ss = &ServerStream{Addr: addr, ring: profiler.NewRingBuffer(ts.ringCap)}
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
		ss.dotName = m.Payload
		ss.dotLines = ss.dotLines[:0]
		ss.dotDone = false
		ss.graph = nil
		ss.dotErr = nil
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
		pass := ss.filter.Pass(e, profiler.ModuleOf(e.Stmt))
		if pass {
			ss.events = append(ss.events, e)
			ss.eventSeen++
		}
		ss.mu.Unlock()
		ts.mu.Lock()
		onEvent := ts.onEvent
		ts.mu.Unlock()
		if pass {
			ss.ring.Emit(e)
			if onEvent != nil {
				onEvent(from, e)
			}
		}
	}
}
