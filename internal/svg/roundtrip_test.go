package svg_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"stethoscope/internal/algebra"
	"stethoscope/internal/compiler"
	"stethoscope/internal/dot"
	"stethoscope/internal/layout"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/sql"
	"stethoscope/internal/storage"
	"stethoscope/internal/svg"
	"stethoscope/internal/tpch"
	"stethoscope/internal/zvtm"
)

var catalog = sync.OnceValue(func() *storage.Catalog {
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.002, Seed: 42}); err != nil {
		panic(err)
	}
	return cat
})

// planGraph is the dot graph of a statement's optimized plan.
func planGraph(tb testing.TB, query string, partitions int) *dot.Graph {
	tb.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := algebra.Bind(stmt, catalog())
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := compiler.Compile(tree, stmt.Text, compiler.Options{Partitions: partitions})
	if err != nil {
		tb.Fatal(err)
	}
	if plan, _, err = optimizer.Default().Run(plan); err != nil {
		tb.Fatal(err)
	}
	return dot.Export(plan)
}

// checkRoundTrip holds the session's shortcut against the paper's detour:
// the Doc built straight from the layout is the Doc parsed back from the
// rendered text, node for node in the text's order, and the glyph
// builder makes the same glyphs of both — kind, box, text, color and
// order.
func checkRoundTrip(tb testing.TB, g *dot.Graph) {
	tb.Helper()
	lay, err := layout.Compute(g, layout.DefaultOptions())
	if err != nil {
		tb.Skip(err) // a cyclic graph has no picture
	}
	drawing, err := svg.Draw(g, lay, svg.DefaultStyle())
	if err != nil {
		tb.Fatal(err)
	}
	direct := drawing.Doc()
	text, err := svg.RenderString(g, lay, nil, svg.DefaultStyle())
	if err != nil {
		tb.Fatal(err)
	}
	parsed, err := svg.ParseString(text)
	if err != nil {
		tb.Fatalf("rendered document does not parse: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(direct, parsed) {
		if direct.Width != parsed.Width || direct.Height != parsed.Height {
			tb.Errorf("canvas %gx%g, parsed %gx%g", direct.Width, direct.Height, parsed.Width, parsed.Height)
		}
		for i, n := range direct.Nodes {
			if i >= len(parsed.Nodes) || parsed.Nodes[i] != n {
				tb.Errorf("node %d: %+v, parsed %+v", i, n, parsed.Nodes[i:min(i+1, len(parsed.Nodes))])
			}
		}
		tb.Fatalf("direct Doc (%d nodes, %d edges) differs from the parsed one (%d nodes, %d edges)",
			len(direct.Nodes), len(direct.Edges), len(parsed.Nodes), len(parsed.Edges))
	}
	fromDirect, err := zvtm.FromSVG(g.Name, direct)
	if err != nil {
		tb.Fatal(err)
	}
	fromParsed, err := zvtm.FromSVG(g.Name, parsed)
	if err != nil {
		tb.Fatal(err)
	}
	if !reflect.DeepEqual(fromDirect, fromParsed) {
		tb.Fatal("glyph spaces differ")
	}
	// What a session leans on: graph node i is drawn at one slot, whose
	// box is its box and whose shape glyph is the space's node at it.
	if fromDirect.Nodes() != len(g.Nodes) {
		tb.Fatalf("%d glyph nodes for %d graph nodes", fromDirect.Nodes(), len(g.Nodes))
	}
	for i := range g.Nodes {
		slot := drawing.Slot(i)
		if drawing.Node(slot) != i {
			tb.Fatalf("node %d is drawn at slot %d, which draws node %d", i, slot, drawing.Node(slot))
		}
		if box, shape := direct.Nodes[slot], fromDirect.Shape(slot); box.X != shape.X || box.Y != shape.Y || shape.Kind != zvtm.ShapeGlyph {
			tb.Fatalf("slot %d: box %+v, shape %+v", slot, box, shape)
		}
	}
}

// checkRepaint holds the retained document against a fresh render: with
// the document already rendered by an earlier paint, a repaint with fills
// is byte for byte what Render writes for the same fills.
func checkRepaint(tb testing.TB, g *dot.Graph) {
	tb.Helper()
	lay, err := layout.Compute(g, layout.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	drawing, err := svg.Draw(g, lay, svg.DefaultStyle())
	if err != nil {
		tb.Fatal(err)
	}
	fills := map[string]string{}
	for i := 0; i < len(g.Nodes); i += 3 {
		fills[g.Nodes[i].ID] = fmt.Sprintf("#%06x", i)
	}
	plain := drawing.Paint(func(int) string { return "" })
	painted := drawing.Paint(func(slot int) string { return fills[g.Nodes[drawing.Node(slot)].ID] })
	for _, tc := range []struct {
		got   string
		fills map[string]string
	}{{plain, nil}, {painted, fills}} {
		fresh, err := svg.RenderString(g, lay, tc.fills, svg.DefaultStyle())
		if err != nil {
			tb.Fatal(err)
		}
		if tc.got != fresh {
			tb.Fatalf("repaint with %d fills differs from a fresh render", len(tc.fills))
		}
	}
}

func TestDocFromLayoutMatchesRoundTrip(t *testing.T) {
	for _, q := range tpch.SweepQueries() {
		for _, parts := range []int{1, 16, 64} {
			g := planGraph(t, q, parts)
			checkRoundTrip(t, g)
			checkRepaint(t, g)
		}
	}

	hostile := &dot.Graph{Name: "hostile"}
	for i, label := range []string{
		`<&">`,
		`it's "quoted" & <tagged> ]]>`,
		"select 'Ünïcödé strïng lïtéräl — 日本語のラベル, long enough that the cut lands inside it' from t",
		"", // falls back to the ID
		strings.Repeat("0123456789", 30),
		"tab\tnewline\nreturn\r\nend",
		"  padded  ",
		"control \x01 and invalid \xff\xfe utf-8, U+FFFD \uFFFD kept, U+FFFF \uFFFF not",
	} {
		hostile.Nodes = append(hostile.Nodes, labelled(fmt.Sprintf("n%d", i), label))
	}
	hostile.Nodes = append(hostile.Nodes,
		dot.Node{ID: `id "with" <markup> & 'quotes'`},
		labelled("", "empty id"),
		dot.Node{ID: "bad\x02id\xff"})
	hostile.Edges = []dot.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 2, To: 8}}
	// A graph built by hand can repeat an ID; the document draws every
	// node.
	hostile.Nodes = append(hostile.Nodes, labelled("n1", "second n1"), labelled("n1", "third n1"))
	checkRoundTrip(t, hostile)
}

// labelled is a node with one attribute, its label.
func labelled(id, label string) dot.Node {
	return dot.Node{ID: id, Attrs: []dot.Attr{{Key: "label", Value: label}}}
}

// seedGraphs are the bundled queries' plans, small enough to mutate.
func seedGraphs(tb testing.TB) []*dot.Graph {
	var gs []*dot.Graph
	for _, q := range tpch.Queries() {
		gs = append(gs, planGraph(tb, strings.Join(strings.Fields(q.SQL), " "), 1))
	}
	return gs
}

// FuzzParse: SVG text arrives from outside the program. No input may
// panic Parse, and whatever parses builds a glyph space.
func FuzzParse(f *testing.F) {
	for _, g := range seedGraphs(f) {
		lay, err := layout.Compute(g, layout.DefaultOptions())
		if err != nil {
			f.Fatal(err)
		}
		text, err := svg.RenderString(g, lay, nil, svg.DefaultStyle())
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(text))
	}
	f.Add([]byte(`<svg width="1e3" height="-0"><g class="node" id="a"><g><rect x=" 1 " fill="red"/></g><text>a<b>c</b>d</text></g><line/></svg>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := svg.ParseString(string(data))
		if err != nil {
			return
		}
		if _, err := zvtm.FromSVG("fuzz", doc); err != nil {
			t.Fatalf("parsed document builds no space: %v", err)
		}
	})
}

// FuzzDocRoundTrip: a small graph cut from the input bytes — node count,
// labels, IDs and edges — laid out, rendered and parsed equals the direct
// Doc, glyph for glyph.
func FuzzDocRoundTrip(f *testing.F) {
	for _, g := range seedGraphs(f) {
		f.Add([]byte(g.Marshal()))
	}
	f.Add([]byte("\x05<&\">\xff\x00é…\x01 label"))
	f.Add([]byte("\x02\x00\x01")) // a node whose ID is empty, with an edge out of it
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%8
		data = data[1:]
		chunk := len(data)/n + 1
		g := &dot.Graph{Name: "fuzz"}
		ids := make([]string, n)
		for i := range ids {
			label := data[min(i*chunk, len(data)):min((i+1)*chunk, len(data))]
			ids[i] = fmt.Sprintf("n%d", i)
			if len(label) > 0 && label[0]%5 == 0 { // an ID from the input, possibly a repeat or empty
				ids[i] = string(label[1:min(len(label), 4)])
			}
			g.Nodes = append(g.Nodes, labelled(ids[i], string(label)))
		}
		for i := 0; i+1 < len(data) && i < 32; i += 2 {
			from, to := int32(data[i])%int32(n), int32(data[i+1])%int32(n)
			if from < to { // forward edges only: the layout wants a DAG
				g.Edges = append(g.Edges, dot.Edge{From: from, To: to})
			}
		}
		// Read the graph back from its dot text, where a repeated ID
		// names one node, as in any dot file.
		g, err := dot.Parse(g.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		checkRoundTrip(t, g)
	})
}
