package trace

import (
	"strings"
	"testing"

	"stethoscope/internal/dot"
	"stethoscope/internal/mal"
	"stethoscope/internal/profiler"
)

func sampleEvents() []profiler.Event {
	return []profiler.Event{
		{Seq: 0, State: profiler.StateStart, PC: 0, Stmt: "a"},
		{Seq: 1, State: profiler.StateDone, PC: 0, DurUs: 100, Stmt: "a"},
		{Seq: 2, State: profiler.StateStart, PC: 1, Stmt: "b"},
		{Seq: 3, State: profiler.StateDone, PC: 1, DurUs: 300, Stmt: "b"},
		{Seq: 4, State: profiler.StateStart, PC: 2, Stmt: "c"},
	}
}

// TestStoreIndexes: a store is indexed by event position only, and
// FromEvents copies what it is given.
func TestStoreIndexes(t *testing.T) {
	events := sampleEvents()
	s := FromEvents(events)
	if s.Len() != 5 {
		t.Fatalf("len = %d", s.Len())
	}
	for i, want := range sampleEvents() {
		if s.At(i) != want || s.Events()[i] != want {
			t.Errorf("event %d: At %+v, Events %+v; want %+v", i, s.At(i), s.Events()[i], want)
		}
	}
	events[0].PC = 99
	if s.At(0).PC != 0 {
		t.Error("FromEvents kept the caller's slice")
	}
}

func TestLoadTraceFile(t *testing.T) {
	var b strings.Builder
	b.WriteString("# trace header comment\n\n")
	for _, e := range sampleEvents() {
		b.WriteString(e.Marshal())
		b.WriteByte('\n')
	}
	s, err := LoadString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.At(4).PC != 2 {
		t.Errorf("At(4) = %+v", s.At(4))
	}
}

func TestLoadRejectsBadLines(t *testing.T) {
	if _, err := LoadString("not a trace line\n"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestMappingMatchesPaperConvention(t *testing.T) {
	// Build a plan, export dot, generate a trace with matching stmts.
	p := mal.NewPlan("q")
	col := p.Emit1("sql", "bind", mal.TBATInt, p.ConstOf(mal.Str("sys")), p.ConstOf(mal.Str("t")), p.ConstOf(mal.Str("c")), p.ConstOf(mal.Int64(0)))
	p.Emit1("algebra", "thetaselect", mal.TBATOID, mal.VarArg(col), p.ConstOf(mal.Str("=")), p.ConstOf(mal.Int64(1)))
	g := dot.Export(p)
	var events []profiler.Event
	for _, in := range p.Instrs {
		stmt := p.StmtString(in)
		events = append(events,
			profiler.Event{Seq: int64(2 * in.PC), State: profiler.StateStart, PC: in.PC, Stmt: stmt},
			profiler.Event{Seq: int64(2*in.PC + 1), State: profiler.StateDone, PC: in.PC, Stmt: stmt})
	}
	s := FromEvents(events)
	m := MapToGraph(s, g)
	if !m.Complete() {
		t.Fatalf("mapping incomplete: %+v", m)
	}
	for pc := range p.Instrs {
		if i, ok := g.PCNode(pc); !ok || i != pc {
			t.Errorf("pc %d maps to node %d, %v", pc, i, ok)
		}
	}
}

func TestMappingDetectsUnmatchedAndMismatched(t *testing.T) {
	g, err := dot.Parse(`digraph g { n0 [label="real stmt"]; }`)
	if err != nil {
		t.Fatal(err)
	}
	s := FromEvents([]profiler.Event{
		{Seq: 0, State: profiler.StateStart, PC: 0, Stmt: "different stmt"},
		{Seq: 1, State: profiler.StateStart, PC: 7, Stmt: "x"},
	})
	m := MapToGraph(s, g)
	if m.Complete() {
		t.Fatal("mapping reported complete")
	}
	if len(m.Unmatched) != 1 || m.Unmatched[0] != 7 {
		t.Errorf("Unmatched = %v", m.Unmatched)
	}
	if len(m.LabelMismatches) != 1 || m.LabelMismatches[0] != 0 {
		t.Errorf("LabelMismatches = %v", m.LabelMismatches)
	}
}

// TestMappingIndexedGraph maps pcs onto a graph whose nodes are not
// n0, n1, ... in order, so pcs resolve through the node index.
func TestMappingIndexedGraph(t *testing.T) {
	g, err := dot.Parse(`digraph g { x; n2 [label=b]; n0 [label=a]; n007; }`)
	if err != nil {
		t.Fatal(err)
	}
	s := FromEvents([]profiler.Event{
		{Seq: 0, State: profiler.StateStart, PC: 0, Stmt: "a"},
		{Seq: 1, State: profiler.StateStart, PC: 2, Stmt: "b"},
		{Seq: 2, State: profiler.StateStart, PC: 7},
		{Seq: 3, State: profiler.StateStart, PC: 3},
	})
	m := MapToGraph(s, g)
	for pc, want := range map[int]int{0: 2, 2: 1} {
		if i, ok := g.PCNode(pc); !ok || i != want {
			t.Errorf("pc %d maps to node %d, %v; want %d", pc, i, ok, want)
		}
	}
	if len(m.Unmatched) != 2 || m.Unmatched[0] != 3 || m.Unmatched[1] != 7 {
		t.Errorf("Unmatched = %v", m.Unmatched)
	}
	if len(m.LabelMismatches) != 0 {
		t.Errorf("LabelMismatches = %v", m.LabelMismatches)
	}
}

// TestWrite: the trace-file writer emits exactly one marshaled event
// per newline-terminated line.
func TestWrite(t *testing.T) {
	var b strings.Builder
	if err := Write(&b, []profiler.Event{
		{Seq: 1, State: profiler.StateStart, PC: 0, Stmt: "a"},
		{Seq: 2, State: profiler.StateDone, PC: 0, Stmt: "a"},
	}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(b.String(), "\n")
	if len(lines) != 3 || lines[2] != "" {
		t.Fatalf("Write wrote %q, want two newline-terminated lines", b.String())
	}
	for _, ln := range lines[:2] {
		if _, err := profiler.UnmarshalEvent(ln); err != nil {
			t.Errorf("line %q unparseable: %v", ln, err)
		}
	}
}

// TestWriteKeepsOrder: events are written in slice order, and an empty
// trace writes nothing.
func TestWriteKeepsOrder(t *testing.T) {
	var b strings.Builder
	if err := Write(&b, []profiler.Event{{Seq: 0, PC: 1}, {Seq: 1, PC: 2}, {Seq: 2, PC: 3}}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	for i, ln := range lines {
		e, err := profiler.UnmarshalEvent(ln)
		if err != nil {
			t.Fatalf("line %q unparseable: %v", ln, err)
		}
		if e.Seq != int64(i) || e.PC != i+1 {
			t.Errorf("line %d has seq %d pc %d", i, e.Seq, e.PC)
		}
	}
	var empty strings.Builder
	if err := Write(&empty, nil); err != nil || empty.Len() != 0 {
		t.Errorf("Write(nil) = %q, %v; want nothing", empty.String(), err)
	}
}

func TestRoundTripThroughFile(t *testing.T) {
	var b strings.Builder
	if err := Write(&b, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	s, err := LoadString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range sampleEvents() {
		if s.At(i) != want {
			t.Errorf("event %d: %+v != %+v", i, s.At(i), want)
		}
	}
}
