package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"stethoscope/internal/dot"
	"stethoscope/internal/mal"
	"stethoscope/internal/profiler"
	"stethoscope/internal/svg"
	"stethoscope/internal/trace"
	"stethoscope/internal/zvtm"
)

// buildFixture produces a small plan's dot text and a matching trace.
func buildFixture(t testing.TB) (string, string) {
	t.Helper()
	p := mal.NewPlan("select l_tax from lineitem where l_partkey=1")
	col := p.Emit1("sql", "bind", mal.TBATInt,
		p.ConstOf(mal.Str("sys")), p.ConstOf(mal.Str("lineitem")), p.ConstOf(mal.Str("l_partkey")), p.ConstOf(mal.Int64(0)))
	sel := p.Emit1("algebra", "thetaselect", mal.TBATOID,
		mal.VarArg(col), p.ConstOf(mal.Str("=")), p.ConstOf(mal.Int64(1)))
	tax := p.Emit1("sql", "bind", mal.TBATFlt,
		p.ConstOf(mal.Str("sys")), p.ConstOf(mal.Str("lineitem")), p.ConstOf(mal.Str("l_tax")), p.ConstOf(mal.Int64(0)))
	p.Emit1("algebra", "leftjoin", mal.TBATFlt, mal.VarArg(sel), mal.VarArg(tax))

	g := dot.Export(p)
	var tb strings.Builder
	clk := int64(0)
	seq := int64(0)
	for _, in := range p.Instrs {
		stmt := p.StmtString(in)
		dur := int64(100 * (in.PC + 1))
		start := profiler.Event{Seq: seq, State: profiler.StateStart, PC: in.PC, Thread: in.PC % 2, ClkUs: clk, Stmt: stmt}
		seq++
		clk += dur
		done := profiler.Event{Seq: seq, State: profiler.StateDone, PC: in.PC, Thread: in.PC % 2, ClkUs: clk, DurUs: dur, RSSKB: 8, Reads: 100, Writes: 50, Stmt: stmt}
		seq++
		tb.WriteString(start.Marshal() + "\n" + done.Marshal() + "\n")
	}
	return g.Marshal(), tb.String()
}

// openOffline is the offline workflow over file contents: parse the dot
// and the trace, then build the session.
func openOffline(dotText, traceText string) (*Session, error) {
	g, err := dot.Parse(dotText)
	if err != nil {
		return nil, err
	}
	st, err := trace.LoadString(traceText)
	if err != nil {
		return nil, err
	}
	return NewSession(g, st, SessionOptions{})
}

// color returns the display color of instruction pc's node.
func color(s *Session, pc int) string {
	i, ok := s.Graph.PCNode(pc)
	if !ok {
		panic("no node for pc")
	}
	return s.Fill(i)
}

// fills is the session's display state keyed by node ID, colored nodes
// only.
func fills(s *Session) map[string]string {
	out := map[string]string{}
	for i := range s.Graph.Nodes {
		if c := s.Fill(i); c != "" {
			out[s.Graph.Nodes[i].ID] = c
		}
	}
	return out
}

func openFixture(t testing.TB) *Session {
	t.Helper()
	dotText, traceText := buildFixture(t)
	s, err := openOffline(dotText, traceText)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenOfflinePipeline(t *testing.T) {
	s := openFixture(t)
	if len(s.Graph.Nodes) != 4 {
		t.Errorf("graph nodes = %d", len(s.Graph.Nodes))
	}
	// Glyph accounting: a shape and a text per node, one glyph per edge.
	for k, want := range map[zvtm.GlyphKind]int{zvtm.ShapeGlyph: 4, zvtm.TextGlyph: 4, zvtm.EdgeGlyph: len(s.Graph.Edges)} {
		if got := s.Space.CountKind(k); got != want {
			t.Errorf("%s glyphs = %d, want %d", k, got, want)
		}
	}
	if !s.Mapping.Complete() {
		t.Errorf("mapping incomplete: %+v", s.Mapping)
	}
	if s.Trace.Len() != 8 {
		t.Errorf("trace len = %d", s.Trace.Len())
	}
}

func TestOpenOfflineErrors(t *testing.T) {
	if _, err := openOffline("not dot", ""); err == nil {
		t.Error("bad dot accepted")
	}
	dotText, _ := buildFixture(t)
	if _, err := openOffline(dotText, "bad trace line"); err == nil {
		t.Error("bad trace accepted")
	}
}

func TestE9ReplayControls(t *testing.T) {
	s := openFixture(t)
	r := s.Replay
	now := time.Unix(0, 0)

	// Step-by-step walk-through.
	e, ok := r.Step(now)
	if !ok || e.Seq != 0 {
		t.Fatalf("step 1 = %+v", e)
	}
	s.Queue.Flush(now.Add(time.Second))
	if c := color(s, 0); c != string(ColorRed) {
		t.Errorf("n0 after start = %q", c)
	}
	r.Step(now)
	s.Queue.Flush(now.Add(2 * time.Second))
	if c := color(s, 0); c != string(ColorGreen) {
		t.Errorf("n0 after done = %q", c)
	}

	// Fast-forward to the end: everything green.
	r.FastForward(100)
	if r.Position() != r.Len() {
		t.Fatalf("position = %d", r.Position())
	}
	for pc := 0; pc < 4; pc++ {
		if c := color(s, pc); c != string(ColorGreen) {
			t.Errorf("n%d after ffwd = %q", pc, c)
		}
	}

	// Rewind into the middle: n1 should be RED (its start applied, done
	// not yet).
	r.Rewind(5) // position 3: events 0,1,2 applied => n0 green, n1 red
	if r.Position() != 3 {
		t.Fatalf("position after rewind = %d", r.Position())
	}
	if c := color(s, 1); c != string(ColorRed) {
		t.Errorf("n1 after rewind = %q", c)
	}
	if c := color(s, 3); c != "" {
		t.Errorf("n3 after rewind = %q, want uncolored", c)
	}

	// Pause gates Tick.
	r.Pause()
	if n := r.Tick(now, 10); n != 0 {
		t.Errorf("paused tick applied %d", n)
	}
	r.Play()
	if n := r.Tick(now, 2); n != 2 {
		t.Errorf("tick applied %d", n)
	}

	// Seek.
	if err := r.SeekTo(0); err != nil {
		t.Fatal(err)
	}
	if err := r.SeekTo(999); err == nil {
		t.Error("out-of-range seek accepted")
	}
}

// A jump repaints the whole space as of its cursor; a recoloring queued
// by steps before the jump must not land afterwards and paint a node
// the cursor has not reached.
func TestReplayJumpDropsPendingRequests(t *testing.T) {
	for name, jump := range map[string]func(r *Replay) error{
		"rewind to the start": func(r *Replay) error { r.Rewind(4); return nil },
		"rewind into a pair":  func(r *Replay) error { r.Rewind(1); return nil },
		"seek":                func(r *Replay) error { return r.SeekTo(1) },
	} {
		s := openFixture(t)
		now := time.Unix(0, 0)
		for i := 0; i < 4; i++ {
			s.Replay.Step(now)
		}
		if err := jump(s.Replay); err != nil {
			t.Fatal(err)
		}
		s.Queue.Flush(now.Add(time.Minute))
		want := map[int]Color{}
		for i := 0; i < s.Replay.Position(); i++ {
			want[s.Trace.At(i).PC] = stateColor(s.Trace.At(i))
		}
		for pc := 0; pc < len(s.Graph.Nodes); pc++ {
			if c := color(s, pc); c != string(want[pc]) {
				t.Errorf("%s: n%d at cursor %d is %q, want %q", name, pc, s.Replay.Position(), c, want[pc])
			}
		}
	}
}

func TestColorBetween(t *testing.T) {
	s := openFixture(t)
	// The full trace is all adjacent pairs: pair-elision colors nothing.
	c, err := s.Replay.ColorBetween(0, s.Trace.Len())
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 0 {
		t.Errorf("fast trace colored %v", c)
	}
	// A window splitting a pair: [1, 4) = done0, start1, done1 —
	// done0 is a lone done (green); start1/done1 pair elided.
	c, err = s.Replay.ColorBetween(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c[0] != ColorGreen {
		t.Errorf("window coloring = %v", c)
	}
	if _, err := s.Replay.ColorBetween(5, 2); err == nil {
		t.Error("inverted window accepted")
	}
}

func TestRenderSVGCarriesColors(t *testing.T) {
	s := openFixture(t)
	s.Replay.FastForward(3) // n0 green, n1 red
	out, err := s.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, string(ColorGreen)) || !strings.Contains(out, string(ColorRed)) {
		t.Error("rendered svg missing state colors")
	}
}

// A dot file can name a node "" (and dot.Parse accepts it); the session
// still opens, clears, colors and paints, and pc 0 is the node named n0,
// not the graph's node 0.
func TestSessionWithEmptyNodeID(t *testing.T) {
	s, err := openOffline(`digraph g { "" -> n0; n0 -> n1; }`, "")
	if err != nil {
		t.Fatal(err)
	}
	s.Show(Coloring{0: ColorRed})
	out, err := s.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out, `class="node">`); got != 3 {
		t.Errorf("painted %d nodes, want 3", got)
	}
	if want := map[string]string{"n0": string(ColorRed)}; !reflect.DeepEqual(fills(s), want) {
		t.Errorf("fills = %v, want %v", fills(s), want)
	}
	fresh, err := svg.RenderString(s.Graph, s.Layout, fills(s), svg.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	if out != fresh {
		t.Error("session paint differs from a fresh render of the same fills")
	}
}

// Show colors by pc, not by what the trace held when the session opened:
// an online session opened mid-stream is shown pcs its mapping never saw.
func TestShowColorsPcsOutsideTheOpenTimeTrace(t *testing.T) {
	dotText, _ := buildFixture(t)
	s, err := openOffline(dotText, "")
	if err != nil {
		t.Fatal(err)
	}
	if s.Trace.Len() != 0 {
		t.Fatalf("empty trace holds %d events", s.Trace.Len())
	}
	s.Show(Coloring{3: ColorGreen})               // an earlier state, to be cleared
	s.Show(Coloring{2: ColorRed, 99: ColorGreen}) // pc 99 has no node
	if want := map[string]string{"n2": string(ColorRed)}; !reflect.DeepEqual(fills(s), want) {
		t.Errorf("fills = %v, want %v", fills(s), want)
	}
	out, err := s.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, string(ColorRed)) != 1 || strings.Contains(out, string(ColorGreen)) {
		t.Error("painted colors do not match the coloring shown")
	}
}

func TestTooltipAndDebug(t *testing.T) {
	s := openFixture(t)
	tip := Tooltip(s.Trace, 2)
	if !strings.Contains(tip, "done in 300us") {
		t.Errorf("tooltip = %q", tip)
	}
	if !strings.Contains(Tooltip(s.Trace, 42), "no trace events") {
		t.Error("missing-pc tooltip wrong")
	}
	// The debug window's per-instruction detail: pc 2 started and is
	// done once.
	if strings.Count(tip, "\n  done in") != 1 || strings.Contains(tip, "still running") {
		t.Errorf("tooltip = %q, want one done line and nothing running", tip)
	}
	// Running instruction tooltip.
	st := trace.FromEvents([]profiler.Event{
		{Seq: 0, State: profiler.StateStart, PC: 0, ClkUs: 5, Stmt: "x"},
	})
	if !strings.Contains(Tooltip(st, 0), "still running") {
		t.Error("running tooltip wrong")
	}
}
