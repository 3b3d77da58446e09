package layout

import (
	"fmt"
	"strings"
	"testing"

	"stethoscope/internal/dot"
)

// graphOf reads a test graph from dot statements; an edge declares its
// endpoints.
func graphOf(name string, stmts ...string) *dot.Graph {
	g, err := dot.Parse("digraph " + name + " {\n" + strings.Join(stmts, ";\n") + "\n}\n")
	if err != nil {
		panic(err)
	}
	return g
}

func chainGraph(n int) *dot.Graph {
	var stmts []string
	for i := 0; i < n; i++ {
		stmts = append(stmts, fmt.Sprintf("%s [label=\"instr %d\"]", dot.NodeID(i), i))
		if i > 0 {
			stmts = append(stmts, dot.NodeID(i-1)+" -> "+dot.NodeID(i))
		}
	}
	return graphOf("chain", stmts...)
}

// index returns the index of the node named id.
func index(g *dot.Graph, id string) int {
	for i := range g.Nodes {
		if g.Nodes[i].ID == id {
			return i
		}
	}
	panic("no node " + id)
}

// ranks returns each node's rank: the index of its row in Order.
func ranks(lay *Layout) []int {
	out := make([]int, len(lay.Rects))
	for r, row := range lay.Order {
		for _, v := range row {
			out[v] = r
		}
	}
	return out
}

// crossings counts the pairs of edges between adjacent ranks that cross
// (the standard layered-crossing metric), from Order and the graph's
// edges.
func crossings(g *dot.Graph, lay *Layout) int {
	rank := ranks(lay)
	pos := make([]int, len(lay.Rects))
	for _, row := range lay.Order {
		for i, v := range row {
			pos[v] = i
		}
	}
	type span struct{ from, to int }
	between := map[int][]span{} // rank -> edges to the rank below
	for _, e := range g.Edges {
		if r := rank[e.From]; rank[e.To] == r+1 {
			between[r] = append(between[r], span{pos[e.From], pos[e.To]})
		}
	}
	n := 0
	for _, spans := range between {
		for i, a := range spans {
			for _, b := range spans[i+1:] {
				if (a.from-b.from)*(a.to-b.to) < 0 {
					n++
				}
			}
		}
	}
	return n
}

func diamondGraph() *dot.Graph {
	return graphOf("diamond", "a -> b", "a -> c", "b -> d", "c -> d")
}

func TestChainRanks(t *testing.T) {
	g := chainGraph(5)
	lay, err := Compute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rank := ranks(lay)
	for i := 0; i < 5; i++ {
		if r := rank[index(g, dot.NodeID(i))]; r != i {
			t.Errorf("rank[n%d] = %d", i, r)
		}
	}
	// Y grows with rank.
	for i := 1; i < 5; i++ {
		if lay.Rects[index(g, dot.NodeID(i))].Y <= lay.Rects[index(g, dot.NodeID(i-1))].Y {
			t.Errorf("n%d not below n%d", i, i-1)
		}
	}
}

func TestDiamondRanks(t *testing.T) {
	g := diamondGraph()
	lay, err := Compute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rank := ranks(lay)
	a, b, c, d := index(g, "a"), index(g, "b"), index(g, "c"), index(g, "d")
	if rank[a] != 0 || rank[d] != 2 {
		t.Errorf("ranks = %v", rank)
	}
	if rank[b] != 1 || rank[c] != 1 {
		t.Errorf("mid ranks = %v", rank)
	}
	// b and c share a rank and must not overlap.
	rb, rc := lay.Rects[b], lay.Rects[c]
	if overlap(rb, rc) {
		t.Errorf("b %+v and c %+v overlap", rb, rc)
	}
}

func overlap(a, b Rect) bool {
	return a.X < b.X+b.W && b.X < a.X+a.W && a.Y < b.Y+b.H && b.Y < a.Y+a.H
}

func TestNoOverlapsAnywhere(t *testing.T) {
	var stmts []string
	for i := 0; i < 40; i++ {
		stmts = append(stmts, fmt.Sprintf("root -> leaf%02d", i))
	}
	g := graphOf("fan", stmts...)
	lay, err := Compute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range lay.Rects {
		for j := i + 1; j < len(lay.Rects); j++ {
			if overlap(lay.Rects[i], lay.Rects[j]) {
				t.Fatalf("%s and %s overlap", g.Nodes[i].ID, g.Nodes[j].ID)
			}
		}
	}
	if lay.Width <= 0 || lay.Height <= 0 {
		t.Errorf("bounds = %g x %g", lay.Width, lay.Height)
	}
}

func TestCycleRejected(t *testing.T) {
	g := graphOf("cycle", "a -> b", "b -> c", "c -> a")
	if _, err := Compute(g, DefaultOptions()); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := graphOf("self", "a -> a", "a -> b")
	lay, err := Compute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.Rects) != 2 {
		t.Errorf("positions = %d", len(lay.Rects))
	}
}

func TestEmptyGraph(t *testing.T) {
	lay, err := Compute(graphOf("empty"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.Rects) != 0 {
		t.Error("positions for empty graph")
	}
}

func TestBarycenterReducesCrossings(t *testing.T) {
	// Two-rank bipartite graph wired as a reversal: without ordering it
	// has many crossings; barycenter ordering should eliminate most.
	const k = 8
	var stmts []string
	for i := 0; i < k; i++ {
		stmts = append(stmts, fmt.Sprintf("top%d", i))
	}
	for i := 0; i < k; i++ {
		// bottom i connects to top (k-1-i): a full reversal.
		stmts = append(stmts, fmt.Sprintf("top%d -> bot%d", k-1-i, i))
	}
	g := graphOf("bipartite", stmts...)
	zero, err := Compute(g, Options{CharWidth: 7, MinWidth: 40, MaxWidth: 400, NodeHeight: 28, HGap: 10, VGap: 30, Sweeps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := crossings(g, zero); n != 0 {
		t.Errorf("reversal not untangled: %d crossings", n)
	}
}

func TestLargeGraphUnder1000msAndCorrect(t *testing.T) {
	// The paper's claim: graphs with >1000 nodes are supported.
	var stmts []string
	// A mitosis-like shape: 8 roots fanning to 64 partitions each, then
	// packing back: 8 + 8*64*2 + 8 nodes.
	id := 0
	next := func() string { id++; return fmt.Sprintf("v%d", id) }
	for b := 0; b < 8; b++ {
		bind := next()
		pack := next()
		stmts = append(stmts, bind+` [label="sql.bind"]`, pack+` [label="mat.pack"]`)
		for p := 0; p < 64; p++ {
			slice := next()
			sel := next()
			stmts = append(stmts, bind+" -> "+slice, slice+" -> "+sel, sel+" -> "+pack)
		}
	}
	g := graphOf("big", stmts...)
	if len(g.Nodes) <= 1000 {
		t.Fatalf("test graph too small: %d", len(g.Nodes))
	}
	lay, err := Compute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.Rects) != len(g.Nodes) {
		t.Fatalf("placed %d of %d nodes", len(lay.Rects), len(g.Nodes))
	}
	// Edges always point downward (rank monotonicity).
	rank := ranks(lay)
	for _, e := range g.Edges {
		if rank[e.To] <= rank[e.From] {
			t.Fatalf("edge %s->%s not downward", g.Nodes[e.From].ID, g.Nodes[e.To].ID)
		}
	}
}

func TestLabelWidthClamping(t *testing.T) {
	g := graphOf("labels", "a [label="+strings.Repeat("x", 500)+"]", "b [label=s]")
	opt := DefaultOptions()
	lay, err := Compute(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if w := lay.Rects[index(g, "a")].W; w > opt.MaxWidth {
		t.Errorf("width %g exceeds clamp %g", w, opt.MaxWidth)
	}
	if w := lay.Rects[index(g, "b")].W; w < opt.MinWidth {
		t.Errorf("width %g below minimum", w)
	}
}
