package trace_test

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"stethoscope/internal/dot"
	"stethoscope/internal/profiler"
	"stethoscope/internal/trace"
)

// This file holds MapToGraph as it stood while the store kept a per-pc
// index, verbatim apart from the ref prefix: the index build of
// FromEventsOwned, its lookup, and the mapping over the distinct pcs.
// TestMapToGraphMatchesReference and FuzzTraceLoad hold MapToGraph to
// it: the same trace on the same graph gives the same Mapping.

// refStore holds an ordered trace with per-pc indexes.
type refStore struct {
	events []profiler.Event
	dense  [][]int       // pc index; nil when the sparse fallback is active
	sparse map[int][]int // fallback index for sparse/negative PCs
	pcs    []int         // distinct pcs (ascending on the dense path)
}

// refFromEventsOwned builds a store taking ownership of the slice.
func refFromEventsOwned(events []profiler.Event) *refStore {
	s := &refStore{events: events}
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
func (s *refStore) idxsOf(pc int) []int {
	if s.dense != nil {
		if pc < 0 || pc >= len(s.dense) {
			return nil
		}
		return s.dense[pc]
	}
	return s.sparse[pc]
}

// refMapToGraph resolves every traced pc against the graph.
func refMapToGraph(s *refStore, g *dot.Graph) trace.Mapping {
	var m trace.Mapping
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

// checkMapping fails t unless MapToGraph and the reference give the same
// Mapping for events on g.
func checkMapping(t *testing.T, events []profiler.Event, g *dot.Graph) trace.Mapping {
	t.Helper()
	got := trace.MapToGraph(trace.FromEvents(events), g)
	want := refMapToGraph(refFromEventsOwned(slices.Clone(events)), g)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MapToGraph = %+v, reference %+v\nevents %+v\ngraph %s", got, want, events, g.Marshal())
	}
	return got
}

// mappingGraph is the graph FuzzTraceLoad maps every accepted trace
// onto. Its IDs are not canonical, so pcs resolve both straight from a
// node's position and through the ID index; it has a node with no label,
// one with an empty label, one at a negative pc and labels that the
// fuzz seeds' statements match.
const mappingGraph = `digraph g {
	n0 [label="a"]; x; n2 [label=b]; n1 [label=""]; n007 [label=c];
	n01; "n-3" [label=d]; n9 [label="q\"uote back\\slash line\nfeed é"]; n5;
}`

// TestMapToGraphMatchesReference maps hostile traces onto hostile
// graphs and holds MapToGraph to the indexed reference on each pair.
func TestMapToGraphMatchesReference(t *testing.T) {
	ev := func(pc int, stmt string) profiler.Event {
		return profiler.Event{State: profiler.StateStart, PC: pc, Stmt: stmt}
	}
	traces := map[string][]profiler.Event{
		"empty":    nil,
		"dense":    {ev(0, "a"), ev(1, ""), ev(2, "b"), ev(2, "b"), ev(0, "a"), ev(3, "c")},
		"negative": {ev(-3, "d"), ev(-1, "x"), ev(0, "a"), ev(-3, "e")},
		"sparse":   {ev(0, "a"), ev(5000, "z"), ev(2, "b"), ev(5000, "")},
		"huge": {ev(math.MaxInt, "a"), ev(math.MinInt, "b"), ev(1<<40, ""),
			ev(math.MaxInt32, "c"), ev(0, "wrong")},
		"no node":      {ev(4, "a"), ev(6, "b"), ev(4, "a"), ev(8, ""), ev(6, "")},
		"restated":     {ev(0, ""), ev(0, "wrong"), ev(0, "a"), ev(2, "b"), ev(2, "wrong"), ev(1, "x"), ev(1, "y")},
		"empty stmts":  {ev(0, ""), ev(1, ""), ev(2, ""), ev(5, ""), ev(7, ""), ev(9, "")},
		"every label":  {ev(0, "a"), ev(2, "b"), ev(7, "c"), ev(-3, "d"), ev(9, "q\"uote back\\slash line\nfeed é")},
		"mismatch all": {ev(0, "b"), ev(1, "b"), ev(2, "a"), ev(3, "a"), ev(5, "a"), ev(7, "a"), ev(9, "a"), ev(-3, "a")},
	}
	graphs := map[string]string{
		"canonical":     `digraph g { n0 [label=a]; n1 [label=b]; n2 [label=b]; n3 [label=""]; n4; }`,
		"non-canonical": mappingGraph,
		"shuffled":      `digraph g { n2 [label=b]; n0 [label=a]; n1; n4 [label=a]; n3 [label=c]; }`,
		"empty":         `digraph g { }`,
		"huge ids":      `digraph g { n9223372036854775807 [label=a]; "n-9223372036854775808" [label=a]; n2147483647 [label=c]; n1099511627776 [label=""]; }`,
	}
	var unmatched, mismatched bool
	for gname, text := range graphs {
		g, err := dot.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", gname, err)
		}
		for tname, events := range traces {
			t.Run(gname+"/"+tname, func(t *testing.T) {
				m := checkMapping(t, events, g)
				unmatched = unmatched || len(m.Unmatched) > 0
				mismatched = mismatched || len(m.LabelMismatches) > 0
			})
		}
	}
	if !unmatched || !mismatched {
		t.Errorf("the table never produced an unmatched pc (%v) or a label mismatch (%v)", unmatched, mismatched)
	}
}
