package core

import (
	"fmt"
	"time"

	"stethoscope/internal/dot"
	"stethoscope/internal/layout"
	"stethoscope/internal/svg"
	"stethoscope/internal/trace"
	"stethoscope/internal/zvtm"
)

// Session is one analysis window: the plan graph with its layout, the
// glyph space holding each node's display color, the trace with its
// pc-to-node mapping, and a replay controller. Offline mode opens a
// session from a pre-existing dot file and trace file (paper §4.1);
// online mode builds the same structure from streamed content (§4.2).
//
// Instruction pc is graph node i (Graph.PCNode), drawn at one place in
// the picture's document (drawing.Slot(i)), which is also its node in
// the glyph space: the drawing's permutation is the only map between a
// node and its glyphs.
type Session struct {
	Graph   *dot.Graph
	Layout  *layout.Layout
	Space   *zvtm.VirtualSpace
	Queue   *zvtm.RenderQueue
	Trace   *trace.Store
	Mapping trace.Mapping
	Replay  *Replay

	// drawing is the plan's picture, retained so a repaint only patches
	// fills.
	drawing *svg.Drawing
}

// SessionOptions tunes session construction.
type SessionOptions struct {
	// DispatchDelay is the render queue's per-node latency; zero selects
	// the paper's 150 ms.
	DispatchDelay time.Duration
}

// NewSession builds a session from a parsed dot file and trace, the
// offline workflow of §4 (and the online mode's once the dot stream
// completes): layout → in-memory glyph structure, then map the trace's
// pcs to nodes. The paper's "intermediate svg → parse svg" hop between
// layout and glyphs is how an SVG from another tool is imported
// (svg.Parse); a session builds the same document straight from its
// own layout.
func NewSession(g *dot.Graph, st *trace.Store, opt SessionOptions) (*Session, error) {
	lay, err := layout.Compute(g, layout.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("core: layout: %w", err)
	}
	// The drawing's document is what parsing its SVG text would give, so
	// the glyph geometry is identical to what a file-based exchange
	// produces.
	drawing, err := svg.Draw(g, lay, svg.DefaultStyle())
	if err != nil {
		return nil, fmt.Errorf("core: svg: %w", err)
	}
	vs, err := zvtm.FromSVG(g.Name, drawing.Doc())
	if err != nil {
		return nil, fmt.Errorf("core: glyphs: %w", err)
	}
	s := &Session{
		Graph:   g,
		Layout:  lay,
		Space:   vs,
		Queue:   zvtm.NewRenderQueue(vs, opt.DispatchDelay),
		Trace:   st,
		Mapping: trace.MapToGraph(st, g),
		drawing: drawing,
	}
	s.Replay = &Replay{s: s, paused: true}
	return s, nil
}

// slot returns instruction pc's node in the glyph space; ok is false
// when the graph has no node for pc.
func (s *Session) slot(pc int) (int, bool) {
	i, ok := s.Graph.PCNode(pc)
	if !ok {
		return 0, false
	}
	return s.drawing.Slot(i), true
}

// Fill returns graph node i's current display color — the replay state
// the terminal display draws.
func (s *Session) Fill(i int) string { return s.Space.Shape(s.drawing.Slot(i)).Color }

// clear uncolors every node.
func (s *Session) clear() {
	for k := 0; k < s.Space.Nodes(); k++ {
		s.Space.Shape(k).Color = ""
	}
}

// Show replaces the display state with a coloring: every node uncolored
// but the instructions the coloring names (a pc with no node is skipped).
func (s *Session) Show(c Coloring) {
	s.clear()
	for pc, color := range c {
		if k, ok := s.slot(pc); ok {
			s.Space.Shape(k).Color = string(color)
		}
	}
}

// RenderSVG renders the current display state (graph + colors) as SVG —
// the reproduction's "display window" (Figure 4). The document is
// rendered once; every call after the first copies it with the glyph
// space's current shape colors in the fill slots.
func (s *Session) RenderSVG() (string, error) {
	return s.drawing.Paint(func(slot int) string { return s.Space.Shape(slot).Color }), nil
}
