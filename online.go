package stethoscope

import (
	"context"
	"fmt"
	"time"

	"stethoscope/internal/core"
)

// EventSink receives the events of an online monitoring stream as they
// arrive. source is the streaming server's UDP address.
type EventSink interface {
	OnEvent(source string, e Event)
}

// EventSinkFunc adapts a function to the EventSink interface.
type EventSinkFunc func(source string, e Event)

// OnEvent implements EventSink.
func (f EventSinkFunc) OnEvent(source string, e Event) { f(source, e) }

// monitorConfig collects the Attach-time settings.
type monitorConfig struct {
	ringCap int
}

// MonitorOption configures Attach.
type MonitorOption func(*monitorConfig)

// WithRingCapacity sets the per-server sampling buffer capacity the
// online coloring reads (default 1024).
func WithRingCapacity(n int) MonitorOption { return func(c *monitorConfig) { c.ringCap = n } }

// Monitor is the online textual Stethoscope: a UDP listener that
// reassembles dot files and collects execution traces streamed by one or
// more servers (paper §3.2, §4.2).
type Monitor struct {
	ts *core.TextualStethoscope
}

// Attach binds the monitor's UDP listener ("127.0.0.1:0" picks a free
// port). Point servers at Addr with Remote.TraceTo. Canceling ctx shuts
// the listener down; streams received before cancellation stay readable.
func Attach(ctx context.Context, addr string, opts ...MonitorOption) (*Monitor, error) {
	cfg := monitorConfig{ringCap: 1024}
	for _, o := range opts {
		o(&cfg)
	}
	ts, err := core.StartTextualContext(ctx, addr, cfg.ringCap)
	if err != nil {
		return nil, fmt.Errorf("stethoscope: %w", err)
	}
	return &Monitor{ts: ts}, nil
}

// Addr returns the UDP address servers should stream to.
func (m *Monitor) Addr() string { return m.ts.Addr() }

// Close stops the listener.
func (m *Monitor) Close() error { return m.ts.Close() }

// SetSink installs (or, with nil, removes) the observer receiving every
// accepted event — the tee that redirects the online stream into a
// trace file (§4.2). Safe to call while traffic flows.
func (m *Monitor) SetSink(s EventSink) {
	if s == nil {
		m.ts.SetOnEvent(nil)
		return
	}
	m.ts.SetOnEvent(s.OnEvent)
}

// Sources lists the streaming server addresses seen so far.
func (m *Monitor) Sources() []string { return m.ts.Servers() }

// SourceName returns the name a source announced ("" when unknown).
func (m *Monitor) SourceName(source string) string {
	ss, ok := m.ts.Server(source)
	if !ok {
		return ""
	}
	return ss.ServerName()
}

// SourceCounts reports how many dot lines and events arrived from a
// source.
func (m *Monitor) SourceCounts(source string) (dotLines, events int, ok bool) {
	ss, ok := m.ts.Server(source)
	if !ok {
		return 0, 0, false
	}
	dotLines, events = ss.Counts()
	return dotLines, events, true
}

// Events returns the accumulated trace of a source.
func (m *Monitor) Events(source string) []Event {
	ss, ok := m.ts.Server(source)
	if !ok {
		return nil
	}
	return ss.Events()
}

// LiveColoring runs the §4.2.1 pair-elision algorithm over a source's
// sampling buffer — the online coloring path.
func (m *Monitor) LiveColoring(source string) Coloring {
	ss, ok := m.ts.Server(source)
	if !ok {
		return Coloring{}
	}
	return ss.LiveColoring()
}

// complete reports whether a source has a parsed dot graph and at least
// one event.
func (m *Monitor) complete(source string) bool {
	ss, ok := m.ts.Server(source)
	if !ok {
		return false
	}
	if _, err := ss.Graph(); err != nil {
		return false
	}
	_, events := ss.Counts()
	return events > 0
}

// WaitComplete blocks until some source has streamed a complete dot file
// plus at least one trace event, then waits a short settle period for
// stragglers and returns the source address. It fails when ctx expires
// before any complete stream arrives; a source found before cancellation
// wins and is returned (cancellation merely cuts the settle period
// short).
func (m *Monitor) WaitComplete(ctx context.Context) (string, error) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		for _, source := range m.Sources() {
			if m.complete(source) {
				// Allow in-flight datagrams to drain before analysis.
				select {
				case <-time.After(100 * time.Millisecond):
				case <-ctx.Done():
				}
				return source, nil
			}
		}
		select {
		case <-ctx.Done():
			return "", fmt.Errorf("stethoscope: no complete stream received: %w", ctx.Err())
		case <-tick.C:
		}
	}
}

// Analyze opens a visual-analysis session over a source's streamed dot
// file and trace — the online mode's analysis path.
func (m *Monitor) Analyze(source string, opts ...AnalyzeOption) (*Analysis, error) {
	ss, ok := m.ts.Server(source)
	if !ok {
		return nil, fmt.Errorf("stethoscope: unknown source %s", source)
	}
	g, st, err := ss.Plan()
	if err != nil {
		return nil, fmt.Errorf("stethoscope: %w", err)
	}
	return newAnalysis(g, st, opts)
}
