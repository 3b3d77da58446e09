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
// glyph space observed through a camera, the trace with its pc-to-node
// mapping, and a replay controller. Offline mode opens a session from a
// pre-existing dot file and trace file (paper §4.1); online mode builds
// the same structure from streamed content (§4.2).
type Session struct {
	Graph   *dot.Graph
	Layout  *layout.Layout
	Space   *zvtm.VirtualSpace
	Camera  *zvtm.Camera
	Queue   *zvtm.RenderQueue
	Trace   *trace.Store
	Mapping trace.Mapping
	Replay  *Replay
	// Animator drives camera transitions for the navigation features.
	Animator *zvtm.Animator

	// drawing is the plan's picture, retained so a repaint only patches
	// fills; shapes[i] is the shape glyph whose color fills its slot i.
	drawing *svg.Drawing
	shapes  []*zvtm.Glyph
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
	doc := drawing.Doc()
	vs, err := zvtm.FromSVG(g.Name, doc)
	if err != nil {
		return nil, fmt.Errorf("core: glyphs: %w", err)
	}
	ids := drawing.NodeIDs()
	shapes := make([]*zvtm.Glyph, len(ids))
	for i, id := range ids {
		// By glyph ID, not NodeGlyphs: the space does not index the glyphs
		// of a node whose ID is empty.
		gl, ok := vs.Glyph("shape:" + id)
		if !ok {
			return nil, fmt.Errorf("core: glyphs: node %q has no shape", id)
		}
		shapes[i] = gl
	}
	queue := zvtm.NewRenderQueue(vs, opt.DispatchDelay)
	s := &Session{
		Graph:    g,
		Layout:   lay,
		Space:    vs,
		Camera:   &zvtm.Camera{CX: doc.Width / 2, CY: doc.Height / 2},
		Queue:    queue,
		Trace:    st,
		Mapping:  trace.MapToGraph(st, g),
		Animator: &zvtm.Animator{},
		drawing:  drawing,
		shapes:   shapes,
	}
	s.Replay = NewReplay(st, vs, queue)
	return s, nil
}

// Fills returns the current node-fill map of the glyph space for
// rendering (colored nodes only).
func (s *Session) Fills() map[string]string {
	out := map[string]string{}
	for _, g := range s.shapes {
		if g.Color != "" {
			out[g.NodeID] = g.Color
		}
	}
	return out
}

// Show replaces the display state with a coloring: every node uncolored
// but the instructions the coloring names (a pc with no node is skipped).
func (s *Session) Show(c Coloring) {
	for _, g := range s.shapes {
		g.Color = ""
	}
	for pc, color := range c {
		// The mapping already holds the node ID of every pc the trace had
		// when the session opened; a later pc gets its ID formatted.
		id, ok := s.Mapping.NodeOf[pc]
		if !ok {
			id = dot.NodeID(pc)
		}
		s.Space.SetNodeColor(id, string(color))
	}
}

// RenderSVG renders the current display state (graph + colors) as SVG —
// the reproduction's "display window" (Figure 4). The document is
// rendered once; every call after the first copies it with the glyph
// space's current shape colors in the fill slots.
func (s *Session) RenderSVG() (string, error) {
	return s.drawing.Paint(func(slot int) string { return s.shapes[slot].Color }), nil
}

// NavigateTo animates the camera to center on an instruction's node, the
// "interactive animated navigation in complex query plans" feature.
// durMs is the transition time.
func (s *Session) NavigateTo(pc int, viewW float64, durMs float64) error {
	id := dot.NodeID(pc)
	glyphs := s.Space.NodeGlyphs(id)
	if len(glyphs) == 0 {
		return fmt.Errorf("core: no node for pc=%d", pc)
	}
	g := glyphs[0]
	// Target altitude: node at 40% of viewport width.
	target := &zvtm.Camera{}
	target.CenterOnGlyph(g, viewW, 0.4)
	s.Animator.AnimateCameraTo(s.Camera, target.CX, target.CY, target.Alt, durMs)
	return nil
}

// PickTooltip returns the tooltip for the node under a world coordinate,
// if any.
func (s *Session) PickTooltip(x, y float64) (string, bool) {
	id, ok := s.Space.PickNode(x, y)
	if !ok {
		return "", false
	}
	pc, ok := dot.PCOf(id)
	if !ok {
		return "", false
	}
	return Tooltip(s.Trace, pc), true
}

// View creates a navigation controller over the session's glyph space
// for a viewport of the given pixel size — the interactive window
// (keyboard/scroll navigation, zoom-to-node, viewport-culled rendering).
func (s *Session) View(viewW, viewH float64) *zvtm.NavController {
	nav := zvtm.NewNavController(s.Space, viewW, viewH)
	nav.Cam = s.Camera // share the session camera so animations apply
	nav.FitToView()
	return nav
}

// RenderViewSVG renders the camera's current view (with optional
// fisheye lens) — the zoomed/lensed display window, as opposed to
// RenderSVG's full-plan poster.
func (s *Session) RenderViewSVG(lens *zvtm.FisheyeLens, viewW, viewH float64) (string, error) {
	return zvtm.RenderViewString(s.Space, s.Camera, lens, viewW, viewH)
}
