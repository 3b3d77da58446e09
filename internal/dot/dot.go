// Package dot implements the dot-file stage of Stethoscope's pipeline.
// The MonetDB server "generates a dot file representation for each MAL
// plan before execution begins" (paper §3); Stethoscope parses it back
// into a graph structure. This package provides both directions: Export
// writes a MAL plan as a dot digraph (node nN per instruction, labelled
// with the statement text, edges along dataflow dependencies — the §3.3
// mapping), and Parse reads the DOT-language subset those files use.
package dot

import (
	"fmt"
	"sort"
	"strings"

	"stethoscope/internal/mal"
)

// Node is one graph vertex. ID follows the paper's convention: node "n3"
// corresponds to the instruction with pc=3.
type Node struct {
	ID    string
	Attrs map[string]string
}

// Label returns the node's label attribute (the MAL statement).
func (n *Node) Label() string { return n.Attrs["label"] }

// Edge is a directed edge between node IDs.
type Edge struct {
	From, To string
	Attrs    map[string]string
}

// Graph is a parsed or constructed dot digraph.
type Graph struct {
	Name  string
	Nodes []*Node
	Edges []*Edge

	byID map[string]*Node
}

// NewGraph returns an empty digraph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name, byID: map[string]*Node{}}
}

// AddNode inserts (or updates) a node and returns it.
func (g *Graph) AddNode(id string, attrs map[string]string) *Node {
	if n, ok := g.byID[id]; ok {
		for k, v := range attrs {
			n.Attrs[k] = v
		}
		return n
	}
	n := &Node{ID: id, Attrs: map[string]string{}}
	for k, v := range attrs {
		n.Attrs[k] = v
	}
	g.Nodes = append(g.Nodes, n)
	g.byID[id] = n
	return n
}

// AddEdge inserts a directed edge, implicitly declaring endpoints.
func (g *Graph) AddEdge(from, to string, attrs map[string]string) *Edge {
	g.AddNode(from, nil)
	g.AddNode(to, nil)
	e := &Edge{From: from, To: to, Attrs: map[string]string{}}
	for k, v := range attrs {
		e.Attrs[k] = v
	}
	g.Edges = append(g.Edges, e)
	return e
}

// Node returns the node with the given ID.
func (g *Graph) Node(id string) (*Node, bool) {
	n, ok := g.byID[id]
	return n, ok
}

// Adjacency returns successor lists keyed by node ID.
func (g *Graph) Adjacency() map[string][]string {
	adj := make(map[string][]string, len(g.Nodes))
	for _, n := range g.Nodes {
		adj[n.ID] = nil
	}
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	return adj
}

// Roots returns node IDs with no incoming edges, sorted for determinism.
// The paper's workflow keeps "the root node of this graph structure ...
// to traverse the graph at a later stage".
func (g *Graph) Roots() []string {
	indeg := map[string]int{}
	for _, n := range g.Nodes {
		indeg[n.ID] = 0
	}
	for _, e := range g.Edges {
		indeg[e.To]++
	}
	var roots []string
	for id, d := range indeg {
		if d == 0 {
			roots = append(roots, id)
		}
	}
	sort.Strings(roots)
	return roots
}

// Export renders a MAL plan as a dot digraph: one box node per
// instruction labelled with its statement, one edge per dataflow
// dependency.
func Export(p *mal.Plan) *Graph {
	g := NewGraph("malplan")
	for _, in := range p.Instrs {
		g.AddNode(NodeID(in.PC), map[string]string{
			"label": p.StmtString(in),
			"shape": "box",
		})
	}
	for pc, ds := range p.Deps() {
		for _, d := range ds {
			g.AddEdge(NodeID(d), NodeID(pc), nil)
		}
	}
	return g
}

// Marshal renders the graph in DOT syntax. Every attribute is written
// on its node or edge — no node-default statement, which Parse would
// fold into every node without that attribute — so the text parses back
// to g.
func (g *Graph) Marshal() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n", quoteID(g.Name))
	for _, n := range g.Nodes {
		b.WriteString("  ")
		b.WriteString(quoteID(n.ID))
		writeAttrs(&b, n.Attrs)
		b.WriteString(";\n")
	}
	for _, e := range g.Edges {
		b.WriteString("  ")
		b.WriteString(quoteID(e.From))
		b.WriteString(" -> ")
		b.WriteString(quoteID(e.To))
		writeAttrs(&b, e.Attrs)
		b.WriteString(";\n")
	}
	b.WriteString("}\n")
	return b.String()
}

func writeAttrs(b *strings.Builder, attrs map[string]string) {
	if len(attrs) == 0 {
		return
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString(" [")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(quoteID(k))
		b.WriteString("=")
		b.WriteString(quoteID(attrs[k]))
	}
	b.WriteString("]")
}

// quoteID quotes a DOT identifier unless it is a bare word that Parse
// does not read as a statement keyword.
func quoteID(s string) string {
	switch s {
	case "":
		return `""`
	case "node", "edge", "graph":
		return `"` + s + `"`
	}
	bare := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			bare = false
			break
		}
	}
	if bare {
		return s
	}
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// PCOf maps a node ID in the paper's "nN" convention back to a program
// counter; ok is false for non-conforming IDs.
func PCOf(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'n' {
		return 0, false
	}
	pc := 0
	for i := 1; i < len(id); i++ {
		c := id[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		pc = pc*10 + int(c-'0')
	}
	return pc, true
}

// NodeID renders a program counter in the "nN" convention.
func NodeID(pc int) string { return fmt.Sprintf("n%d", pc) }
