// Package zvtm reproduces the object model of the ZVTM toolkit and its
// ZGrviewer component, the GUI substrate of the original Stethoscope
// (paper §3.1). ZVTM represents every drawable as a Glyph — "for our
// example graph, ZGrviewer maintains following objects, shape (two
// objects), text (two objects), and edge (one object)" — placed in a
// VirtualSpace (an infinite canvas) observed through a Camera that
// provides pan/zoom navigation, plus lenses such as the fisheye.
//
// The original is a Java/Swing GUI; Go has no comparable native toolkit
// (repro note in DESIGN.md), so this package implements the geometry and
// object model headlessly. Every interaction the demo shows — zoom to a
// node, color a node, pick under the cursor, animate a transition — is a
// deterministic, testable API call, and rendering goes through
// internal/svg or internal/ascii instead of a window.
package zvtm

import (
	"fmt"
	"sort"

	"stethoscope/internal/svg"
)

// GlyphKind discriminates the three fundamental ZVTM graphical objects.
type GlyphKind int

// Glyph kinds, per the paper's shape/text/edge enumeration.
const (
	ShapeGlyph GlyphKind = iota
	TextGlyph
	EdgeGlyph
)

// String names the kind.
func (k GlyphKind) String() string {
	switch k {
	case ShapeGlyph:
		return "shape"
	case TextGlyph:
		return "text"
	default:
		return "edge"
	}
}

// Glyph is one graphical object in a virtual space. Shapes and texts
// carry a bounding box; edges carry both endpoints. NodeID links the
// glyph back to its dot node ("n3"), the hook Stethoscope's coloring and
// tooltips use.
type Glyph struct {
	ID     string
	Kind   GlyphKind
	NodeID string // owning graph node, empty for edges

	X, Y, W, H float64 // box (shapes, texts)
	X2, Y2     float64 // second endpoint (edges; X,Y is the first)

	Text  string // label contents (texts)
	Color string // current fill/stroke color
}

// CenterX returns the horizontal center of a box glyph.
func (g *Glyph) CenterX() float64 { return g.X + g.W/2 }

// CenterY returns the vertical center of a box glyph.
func (g *Glyph) CenterY() float64 { return g.Y + g.H/2 }

// Contains reports whether a world point hits the glyph (box glyphs
// only).
func (g *Glyph) Contains(x, y float64) bool {
	if g.Kind == EdgeGlyph {
		return false
	}
	return x >= g.X && x <= g.X+g.W && y >= g.Y && y <= g.Y+g.H
}

// VirtualSpace is the canvas holding all glyphs, indexed by owning node.
type VirtualSpace struct {
	Name   string
	W, H   float64
	glyphs []*Glyph
	byNode map[string][]*Glyph
	byID   map[string]*Glyph
}

// NewVirtualSpace returns an empty space.
func NewVirtualSpace(name string) *VirtualSpace {
	return &VirtualSpace{Name: name, byNode: map[string][]*Glyph{}, byID: map[string]*Glyph{}}
}

// Add inserts a glyph. Duplicate IDs are rejected.
func (vs *VirtualSpace) Add(g *Glyph) error {
	if _, ok := vs.byID[g.ID]; ok {
		return fmt.Errorf("zvtm: duplicate glyph id %q", g.ID)
	}
	vs.glyphs = append(vs.glyphs, g)
	vs.byID[g.ID] = g
	if g.NodeID != "" {
		vs.byNode[g.NodeID] = append(vs.byNode[g.NodeID], g)
	}
	return nil
}

// Glyphs returns all glyphs in insertion order.
func (vs *VirtualSpace) Glyphs() []*Glyph { return vs.glyphs }

// Glyph looks a glyph up by ID.
func (vs *VirtualSpace) Glyph(id string) (*Glyph, bool) {
	g, ok := vs.byID[id]
	return g, ok
}

// NodeGlyphs returns the glyphs belonging to a graph node.
func (vs *VirtualSpace) NodeGlyphs(nodeID string) []*Glyph { return vs.byNode[nodeID] }

// NodeIDs returns all node IDs with glyphs, sorted.
func (vs *VirtualSpace) NodeIDs() []string {
	ids := make([]string, 0, len(vs.byNode))
	for id := range vs.byNode {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// CountKind counts glyphs of one kind — used to verify the paper's
// object accounting (2 shapes + 2 texts + 1 edge for a 2-node/1-edge
// graph).
func (vs *VirtualSpace) CountKind(k GlyphKind) int {
	n := 0
	for _, g := range vs.glyphs {
		if g.Kind == k {
			n++
		}
	}
	return n
}

// SetNodeColor recolors every shape glyph of a node; it reports whether
// the node exists. This is the primitive Stethoscope's execution-state
// coloring drives.
func (vs *VirtualSpace) SetNodeColor(nodeID, color string) bool {
	gs := vs.byNode[nodeID]
	if len(gs) == 0 {
		return false
	}
	for _, g := range gs {
		if g.Kind == ShapeGlyph {
			g.Color = color
		}
	}
	return true
}

// NodeColor returns the shape color of a node ("" when absent).
func (vs *VirtualSpace) NodeColor(nodeID string) string {
	for _, g := range vs.byNode[nodeID] {
		if g.Kind == ShapeGlyph {
			return g.Color
		}
	}
	return ""
}

// PickNode returns the node whose shape contains the world point,
// topmost (last added) first — ZVTM picking for tooltips and the debug
// window.
func (vs *VirtualSpace) PickNode(x, y float64) (string, bool) {
	for i := len(vs.glyphs) - 1; i >= 0; i-- {
		g := vs.glyphs[i]
		if g.Kind == ShapeGlyph && g.Contains(x, y) {
			return g.NodeID, true
		}
	}
	return "", false
}

// FromSVG builds the virtual space from an SVG document — drawn from a
// layout (svg.Drawing.Doc) or parsed from text (svg.Parse) — the final
// step of the paper's dot -> svg -> in-memory pipeline: one shape glyph
// and one text glyph per node, one edge glyph per line.
func FromSVG(name string, doc *svg.Doc) (*VirtualSpace, error) {
	vs := NewVirtualSpace(name)
	vs.W, vs.H = doc.Width, doc.Height
	ids := make([]string, 0, len(doc.Nodes))
	for id := range doc.Nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := doc.Nodes[id]
		shape := &Glyph{
			ID: "shape:" + id, Kind: ShapeGlyph, NodeID: id,
			X: n.X, Y: n.Y, W: n.W, H: n.H, Color: n.Fill,
		}
		if err := vs.Add(shape); err != nil {
			return nil, err
		}
		text := &Glyph{
			ID: "text:" + id, Kind: TextGlyph, NodeID: id,
			X: n.X, Y: n.Y, W: n.W, H: n.H, Text: n.Label,
		}
		if err := vs.Add(text); err != nil {
			return nil, err
		}
	}
	for i, e := range doc.Edges {
		edge := &Glyph{
			ID: fmt.Sprintf("edge:%d", i), Kind: EdgeGlyph,
			X: e.X1, Y: e.Y1, X2: e.X2, Y2: e.Y2,
		}
		if err := vs.Add(edge); err != nil {
			return nil, err
		}
	}
	return vs, nil
}
