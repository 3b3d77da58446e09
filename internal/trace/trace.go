// Package trace implements trace-file handling and the trace ↔ dot-file
// mapping of paper §3.3: each MAL instruction appears in the trace as a
// "start" and a "done" event; the pc field maps to dot node "nN" and the
// stmt field maps to the node's label. A Store is the events in trace
// order and nothing else: replay walks them by position, the analyses
// read them in order, and the mapping resolves each event's pc as it
// passes.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"

	"stethoscope/internal/dot"
	"stethoscope/internal/profiler"
)

// Store holds a trace: its events, in order.
type Store struct {
	events []profiler.Event
}

// FromEvents builds a store from in-memory events (online mode's buffer).
func FromEvents(events []profiler.Event) *Store {
	return FromEventsOwned(append([]profiler.Event(nil), events...))
}

// FromEventsOwned builds a store taking ownership of the slice — no
// copy, so the hot Exec path can hand a full trace over for free. The
// caller must not modify events afterwards.
func FromEventsOwned(events []profiler.Event) *Store { return &Store{events: events} }

// LoadString parses a trace file: one marshaled event per line, blank
// lines and '#' comments skipped. It is one pass over s: lines are
// substrings of it, the event slice is sized from its line count, and an
// event's statement is a substring of s unless its quoted form has an
// escape, in which case it is decoded into one buffer shared by the
// whole trace. The store therefore keeps s alive.
func LoadString(s string) (*Store, error) {
	// No line shorter than "event=0 status=done pc=0" is an event, so
	// that bounds the count as much as the newlines do.
	n := min(strings.Count(s, "\n")+1, len(s)/len("event=0 status=done pc=0")+1)
	events := make([]profiler.Event, 0, n)
	var esc strings.Builder
	lineno := 0
	for start, next := 0, 0; start < len(s); start = next {
		line := s[start:]
		next = len(s)
		if nl := strings.IndexByte(line, '\n'); nl >= 0 {
			line, next = line[:nl], start+nl+1
		}
		lineno++
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		if esc.Cap() == 0 && strings.IndexByte(line, '\\') >= 0 {
			// A decoded value is never longer than its quoted form
			// (short of invalid UTF-8), so the rest of s bounds them all.
			esc.Grow(len(s) - start)
		}
		e, err := profiler.DecodeEvent(line, &esc)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineno, err)
		}
		events = append(events, e)
	}
	return FromEventsOwned(events), nil
}

// Write writes events as a trace file, one marshaled event per line —
// the format LoadString reads back. It is the only trace-file writer:
// results, stored runs and the server's HISTORY TRACE all go through it.
func Write(w io.Writer, events []profiler.Event) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, e := range events {
		line = append(e.AppendMarshal(line[:0]), '\n')
		bw.Write(line)
	}
	return bw.Flush()
}

// Len returns the event count. A nil store is the empty trace.
func (s *Store) Len() int { return len(s.Events()) }

// Events returns the trace in order. A nil store is the empty trace.
func (s *Store) Events() []profiler.Event {
	if s == nil {
		return nil
	}
	return s.events
}

// At returns event i.
func (s *Store) At(i int) profiler.Event { return s.events[i] }

// Mapping is the verdict of linking a trace to a dot graph per §3.3:
// instruction pc is the graph's node named "nN" for N = pc
// (dot.Graph.PCNode), and the pcs that do not link are listed here.
type Mapping struct {
	// Unmatched lists pcs present in the trace with no graph node — a
	// stale dot file or truncated plan.
	Unmatched []int
	// LabelMismatches lists pcs whose trace stmt differs from the node
	// label (both non-empty).
	LabelMismatches []int
}

// MapToGraph resolves every traced pc against the graph. A pc's
// statement is its first non-empty one in trace order.
func MapToGraph(s *Store, g *dot.Graph) Mapping {
	var m Mapping
	checked := make([]bool, len(g.Nodes))
	for _, e := range s.events {
		i, ok := g.PCNode(e.PC)
		if !ok {
			m.Unmatched = append(m.Unmatched, e.PC)
			continue
		}
		if e.Stmt == "" || checked[i] {
			continue
		}
		checked[i] = true
		if label := g.Nodes[i].Label(); label != "" && e.Stmt != label {
			m.LabelMismatches = append(m.LabelMismatches, e.PC)
		}
	}
	slices.Sort(m.Unmatched)
	m.Unmatched = slices.Compact(m.Unmatched)
	slices.Sort(m.LabelMismatches)
	m.LabelMismatches = slices.Compact(m.LabelMismatches)
	return m
}

// Complete reports whether every traced pc mapped to a node with a
// matching label.
func (m Mapping) Complete() bool {
	return len(m.Unmatched) == 0 && len(m.LabelMismatches) == 0
}
