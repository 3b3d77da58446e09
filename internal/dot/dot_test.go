package dot

import (
	"strings"
	"testing"

	"stethoscope/internal/mal"
)

func samplePlan(t testing.TB) *mal.Plan {
	t.Helper()
	p := mal.NewPlan("select l_tax from lineitem where l_partkey=1")
	col := p.Emit1("sql", "bind", mal.TBATInt,
		p.ConstOf(mal.Str("sys")), p.ConstOf(mal.Str("lineitem")), p.ConstOf(mal.Str("l_partkey")), p.ConstOf(mal.Int64(0)))
	sel := p.Emit1("algebra", "thetaselect", mal.TBATOID,
		mal.VarArg(col), p.ConstOf(mal.Str("=")), p.ConstOf(mal.Int64(1)))
	tax := p.Emit1("sql", "bind", mal.TBATFlt,
		p.ConstOf(mal.Str("sys")), p.ConstOf(mal.Str("lineitem")), p.ConstOf(mal.Str("l_tax")), p.ConstOf(mal.Int64(0)))
	p.Emit1("algebra", "leftjoin", mal.TBATFlt, mal.VarArg(sel), mal.VarArg(tax))
	return p
}

func TestExportStructure(t *testing.T) {
	p := samplePlan(t)
	g := Export(p)
	if len(g.Nodes) != len(p.Instrs) {
		t.Fatalf("nodes = %d, want %d", len(g.Nodes), len(p.Instrs))
	}
	// pc=N <-> node nN with the stmt as label (paper §3.3).
	for _, in := range p.Instrs {
		n, ok := g.Node(NodeID(in.PC))
		if !ok {
			t.Fatalf("missing node n%d", in.PC)
		}
		if n.Label() != p.StmtString(in) {
			t.Errorf("n%d label = %q, want %q", in.PC, n.Label(), p.StmtString(in))
		}
	}
	// Edges: n0->n1, n1->n3, n2->n3.
	wantEdges := map[string]bool{"n0>n1": true, "n1>n3": true, "n2>n3": true}
	if len(g.Edges) != len(wantEdges) {
		t.Fatalf("edges = %d, want %d", len(g.Edges), len(wantEdges))
	}
	for _, e := range g.Edges {
		if !wantEdges[e.From+">"+e.To] {
			t.Errorf("unexpected edge %s -> %s", e.From, e.To)
		}
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	g := Export(samplePlan(t))
	text := g.Marshal()
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse:\n%s\n%v", text, err)
	}
	if len(back.Nodes) != len(g.Nodes) || len(back.Edges) != len(g.Edges) {
		t.Fatalf("round trip: %d/%d nodes, %d/%d edges",
			len(back.Nodes), len(g.Nodes), len(back.Edges), len(g.Edges))
	}
	for _, n := range g.Nodes {
		bn, ok := back.Node(n.ID)
		if !ok {
			t.Fatalf("round trip lost node %s", n.ID)
		}
		if bn.Label() != n.Label() {
			t.Errorf("node %s label %q != %q", n.ID, bn.Label(), n.Label())
		}
	}
}

func TestParseHandwrittenDot(t *testing.T) {
	src := `
	// a comment
	strict digraph "my plan" {
	  graph [rankdir=TB];
	  node [shape=box, color=gray]; # defaults
	  n0 [label="X_0 := sql.bind(\"sys\");"];
	  n1 [label="select"]
	  n0 -> n1 -> n2 [style=dashed];
	  /* block
	     comment */
	  n3;
	}`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "my plan" {
		t.Errorf("name = %q", g.Name)
	}
	if len(g.Nodes) != 4 {
		t.Fatalf("nodes = %d, want 4", len(g.Nodes))
	}
	n0, _ := g.Node("n0")
	if !strings.Contains(n0.Label(), `sql.bind("sys")`) {
		t.Errorf("n0 label = %q", n0.Label())
	}
	// Defaults applied to explicit node statements.
	if n0.Attrs["shape"] != "box" || n0.Attrs["color"] != "gray" {
		t.Errorf("defaults not applied: %v", n0.Attrs)
	}
	if len(g.Edges) != 2 {
		t.Fatalf("edges = %d, want 2 (chain expansion)", len(g.Edges))
	}
	if g.Edges[1].Attrs["style"] != "dashed" {
		t.Errorf("chain edge attrs = %v", g.Edges[1].Attrs)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"graph-without-keyword { }",
		"digraph {",
		`digraph { n0 [label="unterminated] }`,
		`digraph { n0 [key] }`,
		"digraph { /* unterminated",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestRootsAndAdjacency(t *testing.T) {
	g := Export(samplePlan(t))
	roots := g.Roots()
	// n0 (bind l_partkey) and n2 (bind l_tax) have no deps.
	if len(roots) != 2 || roots[0] != "n0" || roots[1] != "n2" {
		t.Errorf("roots = %v", roots)
	}
	adj := g.Adjacency()
	if len(adj["n1"]) != 1 || adj["n1"][0] != "n3" {
		t.Errorf("adj[n1] = %v", adj["n1"])
	}
	if len(adj["n3"]) != 0 {
		t.Errorf("adj[n3] = %v", adj["n3"])
	}
}

func TestPCOfNodeID(t *testing.T) {
	for pc := 0; pc < 1500; pc += 37 {
		got, ok := PCOf(NodeID(pc))
		if !ok || got != pc {
			t.Fatalf("PCOf(NodeID(%d)) = %d, %v", pc, got, ok)
		}
	}
	for _, bad := range []string{"", "x3", "n", "n3x", "3"} {
		if _, ok := PCOf(bad); ok {
			t.Errorf("PCOf(%q) accepted", bad)
		}
	}
}

func TestQuoteID(t *testing.T) {
	cases := map[string]string{
		"n0":         "n0",
		"":           `""`,
		"has space":  `"has space"`,
		`q"uote`:     `"q\"uote"`,
		"line\nfeed": `"line\nfeed"`,
	}
	for in, want := range cases {
		if got := quoteID(in); got != want {
			t.Errorf("quoteID(%q) = %s, want %s", in, got, want)
		}
	}
}

func TestLargeGraphRoundTrip(t *testing.T) {
	g := NewGraph("big")
	for i := 0; i < 1200; i++ {
		g.AddNode(NodeID(i), map[string]string{"label": "instr"})
		if i > 0 {
			g.AddEdge(NodeID(i-1), NodeID(i), nil)
		}
	}
	back, err := Parse(g.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != 1200 || len(back.Edges) != 1199 {
		t.Errorf("round trip: %d nodes, %d edges", len(back.Nodes), len(back.Edges))
	}
}

func BenchmarkDotMarshal(b *testing.B) {
	g := NewGraph("bench")
	for i := 0; i < 1000; i++ {
		g.AddNode(NodeID(i), map[string]string{"label": "X_1 := algebra.thetaselect(X_0, \"=\", 1);"})
		if i > 0 {
			g.AddEdge(NodeID(i-1), NodeID(i), nil)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Marshal()
	}
}

func BenchmarkDotParse(b *testing.B) {
	g := NewGraph("bench")
	for i := 0; i < 1000; i++ {
		g.AddNode(NodeID(i), map[string]string{"label": "instr"})
		if i > 0 {
			g.AddEdge(NodeID(i-1), NodeID(i), nil)
		}
	}
	text := g.Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}
