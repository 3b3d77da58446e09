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

import "stethoscope/internal/svg"

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
// carry a bounding box; edges carry both endpoints. A glyph has no name:
// which node it belongs to is where it sits in the space.
type Glyph struct {
	Kind GlyphKind

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

// VirtualSpace is the canvas holding all glyphs in one slab. Nodes are
// numbered in the order the SVG document lists them: node i's shape is
// glyph 2i and its text glyph 2i+1, and the edges follow.
type VirtualSpace struct {
	Name   string
	W, H   float64
	glyphs []Glyph
	ids    []string // node i's ID as the document names it, for RenderView
}

// Glyphs returns all glyphs: every node's shape and text, then the
// edges.
func (vs *VirtualSpace) Glyphs() []Glyph { return vs.glyphs }

// Nodes returns the number of nodes.
func (vs *VirtualSpace) Nodes() int { return len(vs.ids) }

// Shape returns node i's shape glyph, whose color is the node's
// execution state — the primitive Stethoscope's coloring drives.
func (vs *VirtualSpace) Shape(i int) *Glyph { return &vs.glyphs[2*i] }

// CountKind counts glyphs of one kind — used to verify the paper's
// object accounting (2 shapes + 2 texts + 1 edge for a 2-node/1-edge
// graph).
func (vs *VirtualSpace) CountKind(k GlyphKind) int {
	n := 0
	for i := range vs.glyphs {
		if vs.glyphs[i].Kind == k {
			n++
		}
	}
	return n
}

// PickNode returns the node whose shape contains the world point,
// topmost (last added) first — ZVTM picking for tooltips and the debug
// window.
func (vs *VirtualSpace) PickNode(x, y float64) (int, bool) {
	for i := len(vs.ids) - 1; i >= 0; i-- {
		if vs.Shape(i).Contains(x, y) {
			return i, true
		}
	}
	return 0, false
}

// FromSVG builds the virtual space from an SVG document — drawn from a
// layout (svg.Drawing.Doc) or parsed from text (svg.Parse) — the final
// step of the paper's dot -> svg -> in-memory pipeline: one shape glyph
// and one text glyph per node, one edge glyph per line. It is the only
// glyph builder. It cannot fail; the error result stays because
// bench/trace.go's zvtm.fromsvg span calls it with this signature.
func FromSVG(name string, doc *svg.Doc) (*VirtualSpace, error) {
	n := len(doc.Nodes)
	vs := &VirtualSpace{
		Name: name, W: doc.Width, H: doc.Height,
		glyphs: make([]Glyph, 2*n+len(doc.Edges)),
		ids:    make([]string, n),
	}
	for i := range doc.Nodes {
		b := &doc.Nodes[i]
		vs.ids[i] = b.ID
		vs.glyphs[2*i] = Glyph{Kind: ShapeGlyph, X: b.X, Y: b.Y, W: b.W, H: b.H, Color: b.Fill}
		vs.glyphs[2*i+1] = Glyph{Kind: TextGlyph, X: b.X, Y: b.Y, W: b.W, H: b.H, Text: b.Label}
	}
	for k, e := range doc.Edges {
		vs.glyphs[2*n+k] = Glyph{Kind: EdgeGlyph, X: e.X1, Y: e.Y1, X2: e.X2, Y2: e.Y2}
	}
	return vs, nil
}
