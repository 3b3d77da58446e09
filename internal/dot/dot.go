// Package dot implements the dot-file stage of Stethoscope's pipeline.
// The MonetDB server "generates a dot file representation for each MAL
// plan before execution begins" (paper §3); Stethoscope parses it back
// into a graph structure. This package provides both directions: Export
// writes a MAL plan as a dot digraph (node nN per instruction, labelled
// with the statement text, edges along dataflow dependencies — the §3.3
// mapping), and Parse reads the DOT-language subset those files use.
//
// A graph is a set of slabs: nodes and edges are value slices, and every
// attribute lives in one []Attr slab that the nodes and edges sub-slice.
// A node's ID is read only here and where text is written: past the
// reader, a node is its index in Nodes, and edges name their endpoints
// by index.
// Parse takes its strings as substrings of the input, so a parsed graph
// keeps its input text alive.
package dot

import (
	"slices"
	"strconv"
	"strings"

	"stethoscope/internal/mal"
)

// Attr is one key=value attribute of a node or edge.
type Attr struct {
	Key, Value string
}

// Node is one graph vertex. ID follows the paper's convention: node "n3"
// corresponds to the instruction with pc=3. Attrs is sorted by key with
// no key repeated.
type Node struct {
	ID    string
	Attrs []Attr
}

// Label returns the node's label attribute (the MAL statement).
func (n *Node) Label() string { return lookup(n.Attrs, "label") }

// lookup returns the value of key in attrs, sorted by key; "" when absent.
func lookup(attrs []Attr, key string) string {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Edge is a directed edge between two nodes, named by their indexes in
// Graph.Nodes. Attrs is sorted by key with no key repeated.
type Edge struct {
	From, To int32
	Attrs    []Attr
}

// Graph is a parsed or exported dot digraph. Parse and Export keep node
// IDs unique and indexed for Node.
type Graph struct {
	Name  string
	Nodes []Node
	Edges []Edge

	// index maps node ID to position in Nodes. It is nil while every
	// node i is named NodeID(i), as Export writes them, and lookups read
	// the position straight from the ID.
	index map[string]int32
}

// Node returns the node with the given ID.
func (g *Graph) Node(id string) (*Node, bool) {
	if g.index != nil {
		i, ok := g.index[id]
		if !ok {
			return nil, false
		}
		return &g.Nodes[i], true
	}
	if pc, ok := canonicalPC(id); ok && pc < len(g.Nodes) {
		return &g.Nodes[pc], true
	}
	return nil, false
}

// PCNode returns the index of instruction pc's node, the node named
// NodeID(pc). When the graph's node pc carries that name, as in every
// exported or re-parsed plan, no ID is formatted.
func (g *Graph) PCNode(pc int) (int, bool) {
	if pc >= 0 && pc < len(g.Nodes) {
		if p, ok := canonicalPC(g.Nodes[pc].ID); ok && p == pc {
			return pc, true
		}
	}
	if g.index == nil {
		return 0, false
	}
	i, ok := g.index[NodeID(pc)]
	return int(i), ok
}

// canonicalPC is PCOf restricted to the IDs NodeID writes: no leading
// zero and few enough digits not to overflow. It is a bijection, so a
// graph whose node i is named NodeID(i) needs no index.
func canonicalPC(id string) (int, bool) {
	if len(id) < 2 || len(id) > 10 || id[0] != 'n' || id[1] == '0' && len(id) > 2 {
		return 0, false
	}
	return PCOf(id)
}

// Export renders a MAL plan as a dot digraph: one box node per
// instruction labelled with its statement, one edge per dataflow
// dependency. The plan must be finalized and numbered (PC == position,
// see mal.Plan.Renumber): labels are slices of its statement memo
// (mal.Plan.CachedStmt), and node i is named NodeID(i).
func Export(p *mal.Plan) *Graph {
	n := len(p.Instrs)
	g := &Graph{Name: "malplan", Nodes: make([]Node, n)}

	// Every node ID is a slice of one string "n0n1n2...".
	idLen := 0
	for i := 0; i < n; i++ {
		idLen += 1 + digits(i)
	}
	var ids strings.Builder
	ids.Grow(idLen)
	var num [20]byte
	for i := 0; i < n; i++ {
		ids.WriteByte('n')
		ids.Write(strconv.AppendInt(num[:0], int64(i), 10))
	}
	idText := ids.String()

	attrs := make([]Attr, 2*n)
	off := 0
	nArgs := 0
	for i, in := range p.Instrs {
		w := 1 + digits(i)
		a := attrs[2*i : 2*i+2 : 2*i+2]
		a[0] = Attr{Key: "label", Value: p.CachedStmt(in)}
		a[1] = Attr{Key: "shape", Value: "box"}
		g.Nodes[i] = Node{ID: idText[off : off+w], Attrs: a}
		off += w
		nArgs += len(in.Args)
	}

	// Edges d -> pc for every distinct pc d defining an argument of
	// instruction pc, in ascending d per pc.
	def := p.DefSites()
	g.Edges = make([]Edge, 0, nArgs)
	var ds []int
	for pc, in := range p.Instrs {
		ds = ds[:0]
		for _, a := range in.Args {
			if a.IsConst() || a.Var() >= len(def) {
				continue
			}
			if d := def[a.Var()]; d >= 0 && d != in.PC {
				ds = append(ds, d)
			}
		}
		slices.Sort(ds)
		for _, d := range slices.Compact(ds) {
			g.Edges = append(g.Edges, Edge{From: int32(d), To: int32(pc)})
		}
	}
	return g
}

// digits is the number of decimal digits of i >= 0.
func digits(i int) int {
	n := 1
	for ; i >= 10; i /= 10 {
		n++
	}
	return n
}

// Marshal renders the graph in DOT syntax. Every attribute is written
// on its node or edge — no node-default statement, which Parse would
// fold into every node without that attribute — so the text parses back
// to g.
func (g *Graph) Marshal() string {
	size := len("digraph ") + quotedLen(g.Name) + len(" {\n") + len("}\n")
	for i := range g.Nodes {
		n := &g.Nodes[i]
		size += len("  ") + quotedLen(n.ID) + attrsLen(n.Attrs) + len(";\n")
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		size += len("  ") + quotedLen(g.Nodes[e.From].ID) + len(" -> ") + quotedLen(g.Nodes[e.To].ID) + attrsLen(e.Attrs) + len(";\n")
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString("digraph ")
	writeID(&b, g.Name)
	b.WriteString(" {\n")
	for i := range g.Nodes {
		n := &g.Nodes[i]
		b.WriteString("  ")
		writeID(&b, n.ID)
		writeAttrs(&b, n.Attrs)
		b.WriteString(";\n")
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		b.WriteString("  ")
		writeID(&b, g.Nodes[e.From].ID)
		b.WriteString(" -> ")
		writeID(&b, g.Nodes[e.To].ID)
		writeAttrs(&b, e.Attrs)
		b.WriteString(";\n")
	}
	b.WriteString("}\n")
	return b.String()
}

func attrsLen(attrs []Attr) int {
	if len(attrs) == 0 {
		return 0
	}
	n := len(" [") + len("]") + len(", ")*(len(attrs)-1)
	for _, a := range attrs {
		n += quotedLen(a.Key) + len("=") + quotedLen(a.Value)
	}
	return n
}

func writeAttrs(b *strings.Builder, attrs []Attr) {
	if len(attrs) == 0 {
		return
	}
	b.WriteString(" [")
	for i, a := range attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		writeID(b, a.Key)
		b.WriteByte('=')
		writeID(b, a.Value)
	}
	b.WriteByte(']')
}

// bare reports whether s is written unquoted: a non-empty run of word
// characters that Parse does not read as a statement keyword.
func bare(s string) bool {
	switch s {
	case "", "node", "edge", "graph":
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}

// quotedLen is the length writeID writes for s.
func quotedLen(s string) int {
	if bare(s) {
		return len(s)
	}
	n := len(s) + 2
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"', '\\', '\n':
			n++
		}
	}
	return n
}

// writeID writes a DOT identifier, quoted unless it is bare.
func writeID(b *strings.Builder, s string) {
	if bare(s) {
		b.WriteString(s)
		return
	}
	b.WriteByte('"')
	start := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '"':
			esc = `\"`
		case '\\':
			esc = `\\`
		case '\n':
			esc = `\n`
		default:
			continue
		}
		b.WriteString(s[start:i])
		b.WriteString(esc)
		start = i + 1
	}
	b.WriteString(s[start:])
	b.WriteByte('"')
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
func NodeID(pc int) string { return "n" + strconv.Itoa(pc) }
