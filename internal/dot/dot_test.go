package dot

import (
	"fmt"
	"runtime"
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
		i, ok := g.PCNode(in.PC)
		if !ok {
			t.Fatalf("missing node n%d", in.PC)
		}
		if n := &g.Nodes[i]; n.Label() != p.StmtString(in) {
			t.Errorf("n%d label = %q, want %q", in.PC, n.Label(), p.StmtString(in))
		}
	}
	// Edges: n0->n1, n1->n3, n2->n3.
	wantEdges := map[string]bool{"n0>n1": true, "n1>n3": true, "n2>n3": true}
	if len(g.Edges) != len(wantEdges) {
		t.Fatalf("edges = %d, want %d", len(g.Edges), len(wantEdges))
	}
	for _, e := range g.Edges {
		from, to := g.Nodes[e.From].ID, g.Nodes[e.To].ID
		if !wantEdges[from+">"+to] {
			t.Errorf("unexpected edge %s -> %s", from, to)
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
	for pc, n := range g.Nodes {
		i, ok := back.PCNode(pc)
		if !ok {
			t.Fatalf("round trip lost node %s", n.ID)
		}
		if bn := &back.Nodes[i]; bn.Label() != n.Label() {
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
	i, _ := g.PCNode(0)
	n0 := &g.Nodes[i]
	if !strings.Contains(n0.Label(), `sql.bind("sys")`) {
		t.Errorf("n0 label = %q", n0.Label())
	}
	// Defaults applied to explicit node statements.
	if lookup(n0.Attrs, "shape") != "box" || lookup(n0.Attrs, "color") != "gray" {
		t.Errorf("defaults not applied: %v", n0.Attrs)
	}
	if len(g.Edges) != 2 {
		t.Fatalf("edges = %d, want 2 (chain expansion)", len(g.Edges))
	}
	if lookup(g.Edges[1].Attrs, "style") != "dashed" {
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

// TestRootsAndAdjacency checks the exported graph's shape: its roots
// (nodes without incoming edges) and its successor lists.
func TestRootsAndAdjacency(t *testing.T) {
	g := Export(samplePlan(t))
	adj := map[string][]string{}
	indeg := map[string]int{}
	for _, e := range g.Edges {
		from, to := g.Nodes[e.From].ID, g.Nodes[e.To].ID
		adj[from] = append(adj[from], to)
		indeg[to]++
	}
	var roots []string
	for _, n := range g.Nodes {
		if indeg[n.ID] == 0 {
			roots = append(roots, n.ID)
		}
	}
	// n0 (bind l_partkey) and n2 (bind l_tax) have no deps.
	if len(roots) != 2 || roots[0] != "n0" || roots[1] != "n2" {
		t.Errorf("roots = %v", roots)
	}
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
		var b strings.Builder
		writeID(&b, in)
		if got := b.String(); got != want || quotedLen(in) != len(want) {
			t.Errorf("writeID(%q) = %s (quotedLen %d), want %s", in, got, quotedLen(in), want)
		}
	}
}

func TestLargeGraphRoundTrip(t *testing.T) {
	var b strings.Builder
	b.WriteString("digraph big {\n")
	for i := 0; i < 1200; i++ {
		fmt.Fprintf(&b, "  %s [label=instr];\n", NodeID(i))
		if i > 0 {
			fmt.Fprintf(&b, "  %s -> %s;\n", NodeID(i-1), NodeID(i))
		}
	}
	b.WriteString("}\n")
	g, err := Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(g.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != 1200 || len(back.Edges) != 1199 {
		t.Errorf("round trip: %d nodes, %d edges", len(back.Nodes), len(back.Edges))
	}
	if g.index != nil || back.index != nil {
		t.Error("a graph of nodes n0, n1, ... in order built a node index")
	}
}

// TestRedeclarationCostsItsOwnAttributes: a statement that adds to a node
// already declared costs memory for what it adds, not for a copy of the
// node's attributes, so alternating redeclarations of two nodes with
// many attributes stay linear in the input.
func TestRedeclarationCostsItsOwnAttributes(t *testing.T) {
	var b strings.Builder
	b.WriteString("digraph g {\n")
	for _, id := range []string{"a", "b"} {
		b.WriteString(id + " [")
		for k := 0; k < 1000; k++ {
			fmt.Fprintf(&b, "k%d=0, ", k)
		}
		b.WriteString("];\n")
	}
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "a [y=%d]; b [y=%d];\n", i, i)
	}
	b.WriteString("}\n")
	text := b.String()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := Parse(text)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.Nodes[0].Attrs); n != 1001 || lookup(g.Nodes[0].Attrs, "y") != "1999" {
		t.Fatalf("a has %d attributes, y=%q", n, lookup(g.Nodes[0].Attrs, "y"))
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(100*len(text)); got > limit {
		t.Errorf("parsing %d bytes allocated %d bytes, over %d", len(text), got, limit)
	}
}
