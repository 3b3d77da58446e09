// Package trace implements trace-file handling and the trace ↔ dot-file
// mapping of paper §3.3: each MAL instruction appears in the trace as a
// "start" and a "done" event; the pc field maps to dot node "nN" and the
// stmt field maps to the node's label. The Store indexes a parsed trace
// by its "event" attribute (sequence number) and by pc, the two access
// paths Stethoscope's replay and coloring use.
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

// Store holds an ordered trace with per-pc indexes. Traces produced by
// executing a plan have small dense PCs (0..n-1), so the index is a
// slice keyed by pc; traces loaded from arbitrary files fall back to a
// map when their PCs are sparse or negative.
type Store struct {
	events []profiler.Event
	dense  [][]int       // pc index; nil when the sparse fallback is active
	sparse map[int][]int // fallback index for sparse/negative PCs
	pcs    []int         // distinct pcs (ascending on the dense path)
}

// FromEvents builds a store from in-memory events (online mode's buffer).
func FromEvents(events []profiler.Event) *Store {
	return FromEventsOwned(append([]profiler.Event(nil), events...))
}

// FromEventsOwned builds a store taking ownership of the slice — no
// copy, so the hot Exec path can hand a full trace over for free. The
// caller must not modify events afterwards.
func FromEventsOwned(events []profiler.Event) *Store {
	s := &Store{events: events}
	maxPC, dense := -1, true
	for _, e := range events {
		if e.PC < 0 {
			dense = false
			break
		}
		if e.PC > maxPC {
			maxPC = e.PC
		}
	}
	if dense && maxPC >= 8*len(events)+1024 {
		dense = false // pathological pc range; don't size a slice by it
	}
	if !dense {
		s.sparse = make(map[int][]int, len(events)/2+1)
		for i, e := range events {
			s.sparse[e.PC] = append(s.sparse[e.PC], i)
		}
		s.pcs = make([]int, 0, len(s.sparse))
		for pc := range s.sparse {
			s.pcs = append(s.pcs, pc)
		}
		slices.Sort(s.pcs)
		return s
	}
	// Dense path: group indices by pc in two passes over one shared
	// backing array — appending into per-pc slices directly would cost
	// one small allocation per distinct PC (thousands per plan).
	counts := make([]int, maxPC+1)
	npcs := 0
	for _, e := range events {
		if counts[e.PC] == 0 {
			npcs++
		}
		counts[e.PC]++
	}
	s.dense = make([][]int, maxPC+1)
	s.pcs = make([]int, 0, npcs)
	backing := make([]int, 0, len(events))
	for pc, n := range counts {
		if n == 0 {
			continue
		}
		s.dense[pc] = backing[len(backing) : len(backing) : len(backing)+n]
		backing = backing[:len(backing)+n]
		s.pcs = append(s.pcs, pc)
	}
	for i, e := range events {
		s.dense[e.PC] = append(s.dense[e.PC], i)
	}
	return s
}

// idxsOf returns the event indexes of one pc, in trace order.
func (s *Store) idxsOf(pc int) []int {
	if s.dense != nil {
		if pc < 0 || pc >= len(s.dense) {
			return nil
		}
		return s.dense[pc]
	}
	return s.sparse[pc]
}

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

// Len returns the event count.
func (s *Store) Len() int { return len(s.events) }

// Events returns the trace in order.
func (s *Store) Events() []profiler.Event { return s.events }

// At returns event i.
func (s *Store) At(i int) profiler.Event { return s.events[i] }

// ByPC returns the events of one instruction, in trace order.
func (s *Store) ByPC(pc int) []profiler.Event {
	idxs := s.idxsOf(pc)
	out := make([]profiler.Event, len(idxs))
	for i, idx := range idxs {
		out[i] = s.events[idx]
	}
	return out
}

// PCs returns the distinct program counters present.
func (s *Store) PCs() []int {
	return append([]int(nil), s.pcs...)
}

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

// MapToGraph resolves every traced pc against the graph.
func MapToGraph(s *Store, g *dot.Graph) Mapping {
	var m Mapping
	for _, pc := range s.pcs {
		i, ok := g.PCNode(pc)
		if !ok {
			m.Unmatched = append(m.Unmatched, pc)
			continue
		}
		stmt := ""
		for _, i := range s.idxsOf(pc) {
			if s.events[i].Stmt != "" {
				stmt = s.events[i].Stmt
				break
			}
		}
		if label := g.Nodes[i].Label(); stmt != "" && label != "" && stmt != label {
			m.LabelMismatches = append(m.LabelMismatches, pc)
		}
	}
	slices.Sort(m.Unmatched)
	slices.Sort(m.LabelMismatches)
	return m
}

// Complete reports whether every traced pc mapped to a node with a
// matching label.
func (m Mapping) Complete() bool {
	return len(m.Unmatched) == 0 && len(m.LabelMismatches) == 0
}
