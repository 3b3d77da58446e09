// Package svg implements the SVG stage of Stethoscope's workflow. The
// paper (§4): "As a first step the dot file gets parsed and an
// intermediate scalar vector graphics (svg) representation gets created.
// In the next step, the svg file gets parsed and an in memory graph
// structure gets created." The original tool had only Graphviz's SVG to
// read; this system owns its layout, so the detour through text is kept
// as an equivalence rather than paid per session: Draw turns a laid-out
// graph into a Drawing — the picture's geometry, computed once — and the
// Drawing yields both the in-memory Doc the zvtm glyph builder consumes
// and the SVG text, repainted with per-node fill colors for
// execution-state display. Parse reads that SVG subset back into a Doc:
// the import path for SVG text that came from somewhere else, and the
// reference the tests hold Drawing.Doc against (parse(render) == Doc).
package svg

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"stethoscope/internal/dot"
	"stethoscope/internal/layout"
)

// Style selects rendering colors.
type Style struct {
	Background string
	NodeFill   string // default fill when no per-node color is given
	NodeStroke string
	EdgeStroke string
	TextColor  string
	FontSize   float64
}

// DefaultStyle matches a plain dot rendering.
func DefaultStyle() Style {
	return Style{
		Background: "#ffffff",
		NodeFill:   "#f2f2f2",
		NodeStroke: "#333333",
		EdgeStroke: "#888888",
		TextColor:  "#111111",
		FontSize:   11,
	}
}

// pad is the margin around the layout's bounding box.
const pad = 8.0

// Drawing is a laid-out graph in SVG coordinates: every number already
// rounded the way the text form carries it (tenths of a unit for boxes
// and lines, whole units for the canvas and the font size), so the Doc
// and the text it yields agree digit for digit. It retains the rendered
// document between paints; like the session that owns it, it is not safe
// for concurrent use.
type Drawing struct {
	style         Style
	fontSize      int64 // whole units
	width, height int64 // whole units
	edges         [][4]int64
	nodes         []nodeBox // in ID order, the order the text lists them

	// The one permutation between graph order and the text's ID order:
	// nodes[k] draws graph node order[k], and graph node i is drawn at
	// slots[i].
	order, slots []int32

	// The retained document: text is everything but the node fills, and
	// cuts[i] is the offset in text where node i's fill goes. Rendered by
	// the first Paint.
	text []byte
	cuts []int
}

// nodeBox is one node's geometry in tenths of a unit, with the graph's
// ID and the label as drawn: the part of it that fits, followed by
// ellipsis when cut. The document carries xmlText of both.
type nodeBox struct {
	id, label  string
	cut        bool
	x, y, w, h int64
	tx, ty     int64 // label anchor
}

// Draw computes the picture of a laid-out graph: canvas size, padded node
// boxes with their (fallback, truncated) labels, and edge segments from
// the bottom center of the source to the top center of the target. It is
// the only place layout coordinates become SVG coordinates, and the only
// place node IDs order anything: the text lists nodes by ID.
func Draw(g *dot.Graph, lay *layout.Layout, style Style) (*Drawing, error) {
	if len(lay.Rects) != len(g.Nodes) {
		return nil, fmt.Errorf("svg: layout places %d nodes, graph has %d", len(lay.Rects), len(g.Nodes))
	}
	if style.FontSize == 0 {
		style = DefaultStyle()
	}
	n := len(g.Nodes)
	d := &Drawing{
		style: style,
		edges: make([][4]int64, len(g.Edges)),
		nodes: make([]nodeBox, n),
		order: make([]int32, n),
		slots: make([]int32, n),
	}
	var err error
	fixed := func(v, scale float64) int64 {
		n, ok := roundFixed(v, scale)
		if !ok && err == nil {
			err = fmt.Errorf("svg: coordinate %g out of range", v)
		}
		return n
	}
	d.fontSize = fixed(style.FontSize, 1)
	d.width = fixed(math.Max(lay.Width+2*pad, 1), 1)
	d.height = fixed(math.Max(lay.Height+2*pad, 1), 1)
	for i, e := range g.Edges {
		f, t := lay.Rects[e.From], lay.Rects[e.To]
		d.edges[i] = [4]int64{
			fixed(f.CenterX()+pad, 10), fixed(f.Y+f.H+pad, 10),
			fixed(t.CenterX()+pad, 10), fixed(t.Y+pad, 10),
		}
	}
	for i := range d.order {
		d.order[i] = int32(i)
	}
	slices.SortStableFunc(d.order, func(a, b int32) int { return strings.Compare(g.Nodes[a].ID, g.Nodes[b].ID) })
	for k, i := range d.order {
		d.slots[i] = int32(k)
		node, r := &g.Nodes[i], lay.Rects[i]
		label := node.Label()
		if label == "" {
			label = node.ID
		}
		kept, cut := fitLabel(label, r.W, style.FontSize)
		d.nodes[k] = nodeBox{
			id: node.ID, label: kept, cut: cut,
			x: fixed(r.X+pad, 10), y: fixed(r.Y+pad, 10),
			w: fixed(r.W, 10), h: fixed(r.H, 10),
			tx: fixed(r.CenterX()+pad, 10), ty: fixed(r.CenterY()+pad+style.FontSize/3, 10),
		}
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Slot returns where graph node i is drawn: its place in the Doc's
// Nodes and Paint's fill slot.
func (d *Drawing) Slot(i int) int { return int(d.slots[i]) }

// Node returns the graph node drawn at a slot.
func (d *Drawing) Node(slot int) int { return int(d.order[slot]) }

// Doc returns the in-memory form of the drawing — exactly what Parse
// reads back from its text.
func (d *Drawing) Doc() *Doc {
	doc := &Doc{Width: float64(d.width), Height: float64(d.height)}
	if len(d.edges) > 0 {
		doc.Edges = make([]Line, len(d.edges))
	}
	for i, e := range d.edges {
		doc.Edges[i] = Line{X1: tenths(e[0]), Y1: tenths(e[1]), X2: tenths(e[2]), Y2: tenths(e[3])}
	}
	if len(d.nodes) > 0 {
		doc.Nodes = make([]NodeBox, len(d.nodes))
	}
	// Every cut label, ellipsis included, is a substring of one buffer
	// sized once.
	size := 0
	for i := range d.nodes {
		if d.nodes[i].cut {
			size += len(xmlText(d.nodes[i].label)) + len(ellipsis)
		}
	}
	var cuts strings.Builder
	cuts.Grow(size)
	for i := range d.nodes {
		n := &d.nodes[i]
		label := xmlText(n.label)
		if n.cut {
			lo := cuts.Len()
			cuts.WriteString(label)
			cuts.WriteString(ellipsis)
			label = cuts.String()[lo:]
		}
		doc.Nodes[i] = NodeBox{
			ID: xmlText(n.id), X: tenths(n.x), Y: tenths(n.y), W: tenths(n.w), H: tenths(n.h),
			Fill: d.style.NodeFill, Label: label,
		}
	}
	return doc
}

// Paint returns the drawing as SVG text with fill(slot) as the fill of
// the node drawn at slot; an empty fill selects the style's default. The
// static text is rendered once, on the first call; a paint is one
// pre-sized copy of it with the fills dropped into their slots.
func (d *Drawing) Paint(fill func(slot int) string) string {
	if d.text == nil {
		d.render()
	}
	pick := func(i int) string {
		if f := fill(i); f != "" {
			return f
		}
		return d.style.NodeFill
	}
	size := len(d.text)
	for i := range d.cuts {
		size += len(pick(i))
	}
	var b strings.Builder
	b.Grow(size)
	prev := 0
	for i, cut := range d.cuts {
		b.Write(d.text[prev:cut])
		b.WriteString(pick(i))
		prev = cut
	}
	b.Write(d.text[prev:])
	return b.String()
}

// render writes the document's static text and records the fill slots.
// Numbers are appended digit by digit from their fixed-point form.
func (d *Drawing) render() {
	var b bytes.Buffer
	b.Grow(512 + 64*len(d.edges) + 320*len(d.nodes))
	units := func(n int64) { b.Write(strconv.AppendInt(b.AvailableBuffer(), n, 10)) }
	tenth := func(n int64) { b.Write(appendTenths(b.AvailableBuffer(), n)) }
	var scratch []byte
	escaped := func(s string) {
		scratch = append(scratch[:0], s...)
		xml.EscapeText(&b, scratch)
	}

	b.WriteString(`<svg xmlns="http://www.w3.org/2000/svg" width="`)
	units(d.width)
	b.WriteString(`" height="`)
	units(d.height)
	b.WriteString(`" viewBox="0 0 `)
	units(d.width)
	b.WriteByte(' ')
	units(d.height)
	b.WriteString("\">\n" + `<rect x="0" y="0" width="`)
	units(d.width)
	b.WriteString(`" height="`)
	units(d.height)
	b.WriteString(`" fill="` + d.style.Background + "\"/>\n")

	// Edges first so nodes draw on top.
	b.WriteString(`<g class="edges" stroke="` + d.style.EdgeStroke + "\">\n")
	for _, e := range d.edges {
		b.WriteString(`<line x1="`)
		tenth(e[0])
		b.WriteString(`" y1="`)
		tenth(e[1])
		b.WriteString(`" x2="`)
		tenth(e[2])
		b.WriteString(`" y2="`)
		tenth(e[3])
		b.WriteString("\"/>\n")
	}
	b.WriteString("</g>\n" + `<g class="nodes">` + "\n")

	rectTail := `" stroke="` + d.style.NodeStroke + "\"/>\n" + `<text x="`
	textTail := `" fill="` + d.style.TextColor + `" text-anchor="middle">`
	d.cuts = make([]int, len(d.nodes))
	for i := range d.nodes {
		n := &d.nodes[i]
		b.WriteString(`<g id="`)
		escaped(n.id)
		b.WriteString(`" class="node">` + "\n" + `<rect x="`)
		tenth(n.x)
		b.WriteString(`" y="`)
		tenth(n.y)
		b.WriteString(`" width="`)
		tenth(n.w)
		b.WriteString(`" height="`)
		tenth(n.h)
		b.WriteString(`" fill="`)
		d.cuts[i] = b.Len()
		b.WriteString(rectTail)
		tenth(n.tx)
		b.WriteString(`" y="`)
		tenth(n.ty)
		b.WriteString(`" font-size="`)
		units(d.fontSize)
		b.WriteString(textTail)
		escaped(n.label)
		if n.cut {
			b.WriteString(ellipsis)
		}
		b.WriteString("</text>\n</g>\n")
	}
	b.WriteString("</g>\n</svg>\n")
	d.text = b.Bytes()
}

// RenderString renders the laid-out graph as SVG text. fills optionally
// overrides the fill color per node ID — Stethoscope's RED/GREEN
// execution states. It is Draw followed by one Paint; a caller that
// paints more than once keeps the Drawing.
//
//stetho:ignore deadexport bench/trace.go's svg.render span calls it until ROADMAP 5(b) re-brackets the analyze spans
func RenderString(g *dot.Graph, lay *layout.Layout, fills map[string]string, style Style) (string, error) {
	d, err := Draw(g, lay, style)
	if err != nil {
		return "", err
	}
	return d.Paint(func(i int) string { return fills[d.nodes[i].id] }), nil
}

// roundFixed returns v×scale rounded to an integer, half to even on v's
// exact binary value — the digits fmt's %.0f (scale 1) and %.1f (scale
// 10) print, without the arbitrary-precision conversion behind them. ok
// is false for values a picture cannot have: non-finite, or 1e14 and
// beyond, where ten times the value nears 2^53 and a float64 no longer
// holds every count of tenths exactly.
func roundFixed(v, scale float64) (n int64, ok bool) {
	a := math.Abs(v)
	if !(a < 1e14) {
		return 0, false
	}
	p := a * scale
	e := math.FMA(a, scale, -p) // a×scale = p + e exactly
	fl := math.Floor(p)
	// p-fl is exact and a multiple of p's last place, as is 0.5, and |e|
	// is at most half of that: e only decides an exact-looking tie.
	switch frac := p - fl; {
	case frac > 0.5,
		frac == 0.5 && e > 0,
		frac == 0.5 && e == 0 && math.Mod(fl, 2) == 1:
		fl++
	}
	n = int64(fl)
	if v < 0 {
		n = -n
	}
	return n, true
}

// tenths is the float64 the text form of n tenths parses back to.
func tenths(n int64) float64 { return float64(n) / 10 }

// appendTenths appends n tenths as a decimal with one fractional digit.
func appendTenths(dst []byte, n int64) []byte {
	if n < 0 {
		dst = append(dst, '-')
		n = -n
	}
	dst = strconv.AppendInt(dst, n/10, 10)
	return append(dst, '.', byte('0'+n%10))
}

// ellipsis marks a label cut to fit its box.
const ellipsis = "…"

// fitLabel returns the part of a label that roughly fits its box: all of
// it, or its first characters with cut set, to be drawn followed by
// ellipsis. The cut falls between characters.
func fitLabel(s string, w, fontSize float64) (kept string, cut bool) {
	maxChars := int(w / (fontSize * 0.62))
	if maxChars < 4 {
		maxChars = 4
	}
	if utf8.RuneCountInString(s) <= maxChars {
		return s, false
	}
	n := 0
	for k := 0; k < maxChars-1; k++ {
		_, size := utf8.DecodeRuneInString(s[n:])
		n += size
	}
	return s[:n], true
}

// xmlText maps s onto the characters an XML 1.0 document can carry, the
// way xml.EscapeText does when the text is written: invalid UTF-8 and
// characters outside the XML range become U+FFFD. What Parse reads back
// from a written string is xmlText of it.
func xmlText(s string) string {
	for i := 0; i < len(s); {
		if c := s[i]; c >= 0x20 && c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if !xmlChar(r) || r == utf8.RuneError && size == 1 {
			return strings.Map(func(r rune) rune {
				if xmlChar(r) {
					return r
				}
				return utf8.RuneError
			}, s)
		}
		i += size
	}
	return s
}

// xmlChar reports whether r is in XML 1.0's character range.
func xmlChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// Doc is the in-memory form of an SVG picture of a plan: the structure
// the glyph builder consumes. Drawing.Doc builds it from a layout; Parse
// reads it from SVG text. Nodes are in the order the text lists them.
type Doc struct {
	Width  float64
	Height float64
	Nodes  []NodeBox
	Edges  []Line
}

// NodeBox is a node group: its rectangle, fill and label text.
type NodeBox struct {
	ID    string
	X, Y  float64
	W, H  float64
	Fill  string
	Label string
}

// Line is an edge segment.
type Line struct {
	X1, Y1, X2, Y2 float64
}

// Parse reads the SVG subset Render writes into a Doc — how a picture
// that came from somewhere else is imported. A geometry attribute that
// is present but not a finite number is an error naming the element and
// the attribute; an absent one is 0.
func Parse(r io.Reader) (*Doc, error) {
	dec := xml.NewDecoder(r)
	doc := &Doc{}
	var current *NodeBox
	depthInNode := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("svg: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			a := numAttrs{el: t}
			switch t.Name.Local {
			case "svg":
				doc.Width, doc.Height = a.num("width"), a.num("height")
			case "g":
				if attr(t, "class") == "node" {
					current = &NodeBox{ID: attr(t, "id")}
					depthInNode = 1
				} else if current != nil {
					depthInNode++
				}
			case "rect":
				if current != nil {
					current.X, current.Y = a.num("x"), a.num("y")
					current.W, current.H = a.num("width"), a.num("height")
					current.Fill = attr(t, "fill")
				}
			case "line":
				doc.Edges = append(doc.Edges, Line{
					X1: a.num("x1"), Y1: a.num("y1"),
					X2: a.num("x2"), Y2: a.num("y2"),
				})
			case "text":
				if current != nil {
					var label strings.Builder
					for {
						inner, err := dec.Token()
						if err != nil {
							return nil, fmt.Errorf("svg: %w", err)
						}
						if cd, ok := inner.(xml.CharData); ok {
							label.Write(cd)
							continue
						}
						if end, ok := inner.(xml.EndElement); ok && end.Name.Local == "text" {
							break
						}
					}
					current.Label = label.String()
				}
			}
			if a.err != nil {
				return nil, a.err
			}
		case xml.EndElement:
			if t.Name.Local == "g" && current != nil {
				depthInNode--
				if depthInNode == 0 {
					doc.Nodes = append(doc.Nodes, *current)
					current = nil
				}
			}
		}
	}
	return doc, nil
}

// ParseString is Parse over a string.
//
//stetho:ignore deadexport bench/trace.go's svg.parse span calls it until ROADMAP 5(b) re-brackets the analyze spans
func ParseString(s string) (*Doc, error) { return Parse(strings.NewReader(s)) }

// attr returns the value of an element's attribute ("" when absent; the
// last one wins when repeated).
func attr(t xml.StartElement, name string) string {
	for i := len(t.Attr) - 1; i >= 0; i-- {
		if t.Attr[i].Name.Local == name {
			return t.Attr[i].Value
		}
	}
	return ""
}

// numAttrs reads the numeric attributes of one element and keeps the
// first that is damaged.
type numAttrs struct {
	el  xml.StartElement
	err error
}

// num returns the named attribute as a number: 0 when it is absent, and
// 0 with a.err set when it is present but not a finite number.
func (a *numAttrs) num(name string) float64 {
	for i := len(a.el.Attr) - 1; i >= 0; i-- {
		if a.el.Attr[i].Name.Local != name {
			continue
		}
		s := a.el.Attr[i].Value
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			if a.err == nil {
				a.err = fmt.Errorf("svg: <%s> %s=%q is not a number", a.el.Name.Local, name, s)
			}
			return 0
		}
		return f
	}
	return 0
}
