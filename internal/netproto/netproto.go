// Package netproto implements the wire protocol between the MonetDB
// server's profiler and the textual Stethoscope (paper §3.2): profiler
// events and dot-file content are streamed over UDP to the listening
// client. One datagram carries one message; dot files are chunked
// line-wise between begin/end markers so the client's monitoring thread
// can "filter the dot file content, generate a new dot file" (§4.2)
// while trace events interleave on the same stream.
package netproto

import (
	"fmt"
	"net"
	"strings"
	"sync"

	"stethoscope/internal/profiler"
)

// MsgKind tags a datagram.
type MsgKind int

// Message kinds.
const (
	MsgEvent      MsgKind = iota // one profiler event line
	MsgDotBegin                  // start of a dot file; payload = plan name
	MsgDotLine                   // one dot file line
	MsgDotEnd                    // end of a dot file
	MsgHello                     // server announcement; payload = server name
	MsgEventBatch                // several event lines, newline-separated
)

var kindTags = map[MsgKind]string{
	MsgEvent:      "EVT",
	MsgDotBegin:   "DOTB",
	MsgDotLine:    "DOTL",
	MsgDotEnd:     "DOTE",
	MsgHello:      "HELO",
	MsgEventBatch: "EVTB",
}

var tagKinds = func() map[string]MsgKind {
	m := map[string]MsgKind{}
	for k, v := range kindTags {
		m[v] = k
	}
	return m
}()

// Msg is one decoded datagram.
type Msg struct {
	Kind    MsgKind
	Payload string
}

// Encode renders the datagram bytes: "TAG payload".
func Encode(m Msg) []byte {
	tag, ok := kindTags[m.Kind]
	if !ok {
		tag = "EVT"
	}
	return []byte(tag + " " + m.Payload)
}

// Decode parses datagram bytes.
func Decode(b []byte) (Msg, error) {
	s := string(b)
	sp := strings.IndexByte(s, ' ')
	tag, payload := s, ""
	if sp >= 0 {
		tag, payload = s[:sp], s[sp+1:]
	}
	kind, ok := tagKinds[tag]
	if !ok {
		return Msg{}, fmt.Errorf("netproto: unknown message tag %q", tag)
	}
	return Msg{Kind: kind, Payload: payload}, nil
}

// UDPStreamer sends profiler events and dot files to one destination.
// It implements profiler.Sink, so it plugs directly into a Profiler.
// Datagram loss is accepted (UDP semantics, as in the paper); send
// errors are recorded, not fatal.
type UDPStreamer struct {
	mu      sync.Mutex
	conn    *net.UDPConn
	dropped int
}

// Dial connects a streamer to addr ("host:port").
func Dial(addr string) (*UDPStreamer, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netproto: %w", err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("netproto: %w", err)
	}
	return &UDPStreamer{conn: conn}, nil
}

// Emit implements profiler.Sink.
func (u *UDPStreamer) Emit(e profiler.Event) {
	u.send(Msg{Kind: MsgEvent, Payload: e.Marshal()})
}

// MaxDatagram bounds the payload of one coalesced datagram. It stays
// well under the 65507-byte UDP maximum so the batch plus its tag never
// needs IP fragmentation tuning on loopback or LAN paths.
const MaxDatagram = 60 * 1024

// EmitBatch implements profiler.BatchSink: events are marshaled and
// packed greedily into as few EVTB datagrams as fit under MaxDatagram,
// replacing one syscall per event with one per batch on the hot trace
// path. An EVTB payload is the event lines joined by '\n'; the listener
// transparently splits them back into MsgEvent deliveries.
func (u *UDPStreamer) EmitBatch(evs []profiler.Event) {
	packEvents(evs, func(payload string) {
		u.send(Msg{Kind: MsgEventBatch, Payload: payload})
	})
}

// packEvents marshals events and greedily packs them into payloads of
// at most MaxDatagram bytes, calling emit once per payload.
func packEvents(evs []profiler.Event, emit func(payload string)) {
	var buf []byte
	n := 0
	for _, e := range evs {
		start := len(buf)
		if n > 0 {
			buf = append(buf, '\n')
		}
		buf = e.AppendMarshal(buf)
		if n > 0 && len(buf) > MaxDatagram {
			// The line does not fit: send what precedes it and start the
			// next payload with it.
			emit(string(buf[:start]))
			buf = append(buf[:0], buf[start+1:]...)
			n = 0
		}
		n++
	}
	if n > 0 {
		emit(string(buf))
	}
}

// Hello announces the server to the client.
func (u *UDPStreamer) Hello(serverName string) {
	u.send(Msg{Kind: MsgHello, Payload: serverName})
}

// SendDot streams a dot file (the server emits it "before query
// execution begins", §4.2).
func (u *UDPStreamer) SendDot(planName, dotText string) {
	u.send(Msg{Kind: MsgDotBegin, Payload: planName})
	for _, line := range strings.Split(strings.TrimRight(dotText, "\n"), "\n") {
		u.send(Msg{Kind: MsgDotLine, Payload: line})
	}
	u.send(Msg{Kind: MsgDotEnd})
}

func (u *UDPStreamer) send(m Msg) {
	// The write happens outside the mutex: net.UDPConn serializes
	// concurrent writes itself, and holding u.mu across a socket write
	// would stall every other sender on one slow syscall. The lock only
	// guards the dropped counter.
	_, err := u.conn.Write(Encode(m))
	if err != nil {
		u.mu.Lock()
		u.dropped++
		u.mu.Unlock()
	}
}

// Dropped reports how many datagrams failed to send.
//
//stetho:ignore deadexport send-failure count: the UDP stream tests assert that no datagram was dropped
func (u *UDPStreamer) Dropped() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.dropped
}

// Close releases the socket.
func (u *UDPStreamer) Close() error { return u.conn.Close() }

// Handler consumes decoded messages with their source address.
type Handler func(from string, m Msg)

// Listener receives datagrams on a UDP socket and dispatches them to a
// handler — the receive loop of the textual Stethoscope. It supports
// traffic from multiple servers simultaneously (§3.2: "can connect to
// multiple MonetDB servers at the same time"); the source address keys
// the per-server demultiplexing.
type Listener struct {
	conn      *net.UDPConn
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup
}

// Listen opens a UDP socket on addr ("127.0.0.1:0" for an ephemeral
// port) and starts the receive loop.
func Listen(addr string, h Handler) (*Listener, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netproto: %w", err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("netproto: %w", err)
	}
	l := &Listener{conn: conn, closed: make(chan struct{})}
	l.wg.Add(1)
	go l.loop(h)
	return l, nil
}

// Addr returns the bound address, for handing to servers.
func (l *Listener) Addr() string { return l.conn.LocalAddr().String() }

func (l *Listener) loop(h Handler) {
	defer l.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, from, err := l.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-l.closed:
				return
			default:
			}
			continue
		}
		src := from.String()
		Dispatch(buf[:n], func(m Msg) { h(src, m) })
	}
}

// Dispatch is the receive loop's work on one datagram: decode it and
// hand its messages to deliver, expanding a coalesced EVTB batch into
// one MsgEvent per line so handlers only ever see the per-event
// protocol. A malformed datagram is dropped.
func Dispatch(b []byte, deliver func(Msg)) {
	m, err := Decode(b)
	if err != nil {
		return
	}
	if m.Kind != MsgEventBatch {
		deliver(m)
		return
	}
	for _, line := range strings.Split(m.Payload, "\n") {
		if line != "" {
			deliver(Msg{Kind: MsgEvent, Payload: line})
		}
	}
}

// Close stops the receive loop and releases the socket. It is
// idempotent and safe for concurrent use: a listener may be shut down
// both by a context watcher and by an explicit Close.
func (l *Listener) Close() error {
	l.closeOnce.Do(func() {
		close(l.closed)
		l.closeErr = l.conn.Close()
	})
	l.wg.Wait()
	return l.closeErr
}
