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

// Load parses a trace file: one marshaled event per line, blank lines and
// '#' comments skipped.
func Load(r io.Reader) (*Store, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []profiler.Event
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := profiler.UnmarshalEvent(line)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineno, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return FromEvents(events), nil
}

// Write writes events as a trace file, one marshaled event per line —
// the format Load reads back. It is the only trace-file writer: results,
// stored runs and the server's HISTORY TRACE all go through it.
func Write(w io.Writer, events []profiler.Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		bw.WriteString(e.Marshal())
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// LoadString is Load over a string.
func LoadString(s string) (*Store, error) { return Load(strings.NewReader(s)) }

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

// Mapping links a trace to a dot graph per §3.3.
type Mapping struct {
	// NodeOf maps pc to the dot node ID ("nN").
	NodeOf map[int]string
	// Unmatched lists pcs present in the trace with no graph node — a
	// stale dot file or truncated plan.
	Unmatched []int
	// LabelMismatches lists pcs whose trace stmt differs from the node
	// label (both non-empty).
	LabelMismatches []int
}

// MapToGraph resolves every traced pc against the graph.
func MapToGraph(s *Store, g *dot.Graph) Mapping {
	m := Mapping{NodeOf: map[int]string{}}
	for _, pc := range s.pcs {
		id := dot.NodeID(pc)
		node, ok := g.Node(id)
		if !ok {
			m.Unmatched = append(m.Unmatched, pc)
			continue
		}
		m.NodeOf[pc] = id
		stmt := ""
		for _, i := range s.idxsOf(pc) {
			if s.events[i].Stmt != "" {
				stmt = s.events[i].Stmt
				break
			}
		}
		if stmt != "" && node.Label() != "" && stmt != node.Label() {
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
