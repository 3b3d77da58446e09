package layout

import (
	"fmt"
	"testing"

	"stethoscope/internal/dot"
)

func chainGraph(n int) *dot.Graph {
	g := dot.NewGraph("chain")
	for i := 0; i < n; i++ {
		g.AddNode(dot.NodeID(i), map[string]string{"label": fmt.Sprintf("instr %d", i)})
		if i > 0 {
			g.AddEdge(dot.NodeID(i-1), dot.NodeID(i), nil)
		}
	}
	return g
}

// ranks maps each node ID to its rank: the index of its row in Order.
func ranks(lay *Layout) map[string]int {
	out := map[string]int{}
	for r, row := range lay.Order {
		for _, id := range row {
			out[id] = r
		}
	}
	return out
}

// crossings counts the pairs of edges between adjacent ranks that cross
// (the standard layered-crossing metric), from Order and the graph's
// edges.
func crossings(g *dot.Graph, lay *Layout) int {
	rank := ranks(lay)
	pos := map[string]int{}
	for _, row := range lay.Order {
		for i, id := range row {
			pos[id] = i
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
	g := dot.NewGraph("diamond")
	g.AddEdge("a", "b", nil)
	g.AddEdge("a", "c", nil)
	g.AddEdge("b", "d", nil)
	g.AddEdge("c", "d", nil)
	return g
}

func TestChainRanks(t *testing.T) {
	lay, err := Compute(chainGraph(5), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rank := ranks(lay)
	for i := 0; i < 5; i++ {
		if rank[dot.NodeID(i)] != i {
			t.Errorf("rank[n%d] = %d", i, rank[dot.NodeID(i)])
		}
	}
	// Y grows with rank.
	for i := 1; i < 5; i++ {
		if lay.Positions[dot.NodeID(i)].Y <= lay.Positions[dot.NodeID(i-1)].Y {
			t.Errorf("n%d not below n%d", i, i-1)
		}
	}
}

func TestDiamondRanks(t *testing.T) {
	lay, err := Compute(diamondGraph(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rank := ranks(lay)
	if rank["a"] != 0 || rank["d"] != 2 {
		t.Errorf("ranks = %v", rank)
	}
	if rank["b"] != 1 || rank["c"] != 1 {
		t.Errorf("mid ranks = %v", rank)
	}
	// b and c share a rank and must not overlap.
	rb, rc := lay.Positions["b"], lay.Positions["c"]
	if overlap(rb, rc) {
		t.Errorf("b %+v and c %+v overlap", rb, rc)
	}
}

func overlap(a, b Rect) bool {
	return a.X < b.X+b.W && b.X < a.X+a.W && a.Y < b.Y+b.H && b.Y < a.Y+a.H
}

func TestNoOverlapsAnywhere(t *testing.T) {
	g := dot.NewGraph("fan")
	for i := 0; i < 40; i++ {
		g.AddEdge("root", fmt.Sprintf("leaf%02d", i), nil)
	}
	lay, err := Compute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(lay.Positions))
	for id := range lay.Positions {
		ids = append(ids, id)
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if overlap(lay.Positions[ids[i]], lay.Positions[ids[j]]) {
				t.Fatalf("%s and %s overlap", ids[i], ids[j])
			}
		}
	}
	if lay.Width <= 0 || lay.Height <= 0 {
		t.Errorf("bounds = %g x %g", lay.Width, lay.Height)
	}
}

func TestCycleRejected(t *testing.T) {
	g := dot.NewGraph("cycle")
	g.AddEdge("a", "b", nil)
	g.AddEdge("b", "c", nil)
	g.AddEdge("c", "a", nil)
	if _, err := Compute(g, DefaultOptions()); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := dot.NewGraph("self")
	g.AddEdge("a", "a", nil)
	g.AddEdge("a", "b", nil)
	lay, err := Compute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.Positions) != 2 {
		t.Errorf("positions = %d", len(lay.Positions))
	}
}

func TestEmptyGraph(t *testing.T) {
	lay, err := Compute(dot.NewGraph("empty"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.Positions) != 0 {
		t.Error("positions for empty graph")
	}
}

func TestBarycenterReducesCrossings(t *testing.T) {
	// Two-rank bipartite graph wired as a reversal: without ordering it
	// has many crossings; barycenter ordering should eliminate most.
	g := dot.NewGraph("bipartite")
	const k = 8
	for i := 0; i < k; i++ {
		g.AddNode(fmt.Sprintf("top%d", i), nil)
	}
	for i := 0; i < k; i++ {
		// bottom i connects to top (k-1-i): a full reversal.
		g.AddEdge(fmt.Sprintf("top%d", k-1-i), fmt.Sprintf("bot%d", i), nil)
	}
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
	g := dot.NewGraph("big")
	// A mitosis-like shape: 8 roots fanning to 64 partitions each, then
	// packing back: 8 + 8*64*2 + 8 nodes.
	id := 0
	next := func() string { id++; return fmt.Sprintf("v%d", id) }
	for b := 0; b < 8; b++ {
		bind := next()
		pack := next()
		g.AddNode(bind, map[string]string{"label": "sql.bind"})
		g.AddNode(pack, map[string]string{"label": "mat.pack"})
		for p := 0; p < 64; p++ {
			slice := next()
			sel := next()
			g.AddEdge(bind, slice, nil)
			g.AddEdge(slice, sel, nil)
			g.AddEdge(sel, pack, nil)
		}
	}
	if len(g.Nodes) <= 1000 {
		t.Fatalf("test graph too small: %d", len(g.Nodes))
	}
	lay, err := Compute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.Positions) != len(g.Nodes) {
		t.Fatalf("placed %d of %d nodes", len(lay.Positions), len(g.Nodes))
	}
	// Edges always point downward (rank monotonicity).
	rank := ranks(lay)
	for _, e := range g.Edges {
		if rank[e.To] <= rank[e.From] {
			t.Fatalf("edge %s->%s not downward", e.From, e.To)
		}
	}
}

func TestLabelWidthClamping(t *testing.T) {
	g := dot.NewGraph("labels")
	long := make([]byte, 500)
	for i := range long {
		long[i] = 'x'
	}
	g.AddNode("a", map[string]string{"label": string(long)})
	g.AddNode("b", map[string]string{"label": "s"})
	opt := DefaultOptions()
	lay, err := Compute(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Positions["a"].W > opt.MaxWidth {
		t.Errorf("width %g exceeds clamp %g", lay.Positions["a"].W, opt.MaxWidth)
	}
	if lay.Positions["b"].W < opt.MinWidth {
		t.Errorf("width %g below minimum", lay.Positions["b"].W)
	}
}
