package dot

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Parse reads the DOT-language subset Stethoscope's dot files use:
//
//	digraph name {
//	  node [default=attrs];        // defaults applied to later nodes
//	  n0 [label="...", shape=box];
//	  n0 -> n1 [style=dashed];
//	}
//
// Comments (//, /* */, #) are skipped. Edge chains (a -> b -> c) are
// expanded. Unquoted identifiers, quoted strings with escapes, and
// multi-statement lines separated by ';' are supported.
//
// Parse is one pass over the input: tokens are read as they are needed,
// and every name, key and value is a substring of the input except a
// quoted string with an escape, which is decoded into one buffer shared
// by the whole graph.
func Parse(input string) (*Graph, error) {
	p := &dotParser{lx: lexer{src: input}}
	p.b.init(input)
	p.advance()
	g, err := p.parse()
	if err != nil {
		// The input is rejected; report a lexical error anywhere in it
		// first, as a reader that tokenizes the whole input up front would.
		for p.tok.ok {
			p.advance()
		}
		if p.lexErr != nil {
			return nil, p.lexErr
		}
		return nil, err
	}
	for p.tok.ok { // text after the closing brace must still tokenize
		p.advance()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return g, nil
}

type dotToken struct {
	text   string
	quoted bool
	ok     bool // false at the end of input
}

// lexer reads DOT tokens from src on demand.
type lexer struct {
	src string
	pos int
	// esc holds the decoded text of every quoted token with an escape;
	// the tokens are substrings of it. It is sized once, at the first
	// such token, to the rest of the input: a decoded string is never
	// longer than its quoted form.
	esc strings.Builder
}

// next returns the next token; ok is false at the end of input.
func (lx *lexer) next() (dotToken, error) {
	input, n := lx.src, len(lx.src)
	i := lx.pos
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '#' || c == '/' && i+1 < n && input[i+1] == '/':
			for i < n && input[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && input[i+1] == '*':
			end := strings.Index(input[i+2:], "*/")
			if end < 0 {
				lx.pos = n
				return dotToken{}, fmt.Errorf("dot: unterminated block comment")
			}
			i += end + 4
		case c == '"':
			i++
			start := i
			decode := false
			for {
				if i >= n {
					lx.pos = n
					return dotToken{}, fmt.Errorf("dot: unterminated string")
				}
				if input[i] == '\\' && i+1 < n {
					switch input[i+1] {
					case 'n', '"', '\\':
						decode = true
					}
					i += 2
					continue
				}
				if input[i] == '"' {
					break
				}
				i++
			}
			lx.pos = i + 1
			text := input[start:i]
			if decode {
				text = lx.unescape(text, n-start)
			}
			return dotToken{text: text, quoted: true, ok: true}, nil
		case c == '-' && i+1 < n && input[i+1] == '>':
			lx.pos = i + 2
			return dotToken{text: input[i : i+2], ok: true}, nil
		case isPunct(c):
			lx.pos = i + 1
			return dotToken{text: input[i : i+1], ok: true}, nil
		default:
			start := i
			for i < n && !endsIdent[input[i]] && !(input[i] == '-' && i+1 < n && input[i+1] == '>') {
				i++
			}
			lx.pos = i
			return dotToken{text: input[start:i], ok: true}, nil
		}
	}
	lx.pos = n
	return dotToken{}, nil
}

func isPunct(c byte) bool {
	switch c {
	case '{', '}', '[', ']', ';', ',', '=':
		return true
	}
	return false
}

// endsIdent marks the bytes an unquoted identifier stops at: space,
// punctuation and the opening quote of a string.
var endsIdent = func() (t [256]bool) {
	for _, c := range []byte(" \t\n\r{}[];,=\"") {
		t[c] = true
	}
	return t
}()

// unescape decodes a quoted token's body into the shared buffer: \n,
// \" and \\ decode, any other backslash pair stays as written. rest is
// the input length from the body on, which bounds every decoded byte
// still to come.
func (lx *lexer) unescape(body string, rest int) string {
	if lx.esc.Cap() == 0 {
		lx.esc.Grow(rest)
	}
	start := lx.esc.Len()
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c == '\\' && i+1 < len(body) {
			i++
			switch body[i] {
			case 'n':
				lx.esc.WriteByte('\n')
			case '"', '\\':
				lx.esc.WriteByte(body[i])
			default:
				lx.esc.WriteByte('\\')
				lx.esc.WriteByte(body[i])
			}
			continue
		}
		lx.esc.WriteByte(c)
	}
	return lx.esc.String()[start:]
}

type dotParser struct {
	lx     lexer
	tok    dotToken // the lookahead
	lexErr error    // set once the lexer fails; tok then reads as end of input
	b      builder
}

func (p *dotParser) advance() {
	if p.lexErr != nil {
		p.tok = dotToken{}
		return
	}
	p.tok, p.lexErr = p.lx.next()
}

func (p *dotParser) accept(text string) bool {
	if p.tok.ok && !p.tok.quoted && p.tok.text == text {
		p.advance()
		return true
	}
	return false
}

func (p *dotParser) expect(text string) error {
	if p.accept(text) {
		return nil
	}
	if !p.tok.ok {
		return fmt.Errorf("dot: expected %q at end of input", text)
	}
	return fmt.Errorf("dot: expected %q, found %q", text, p.tok.text)
}

func (p *dotParser) ident() (string, error) {
	t := p.tok
	if !t.ok {
		return "", fmt.Errorf("dot: unexpected end of input")
	}
	if !t.quoted && len(t.text) == 1 && isPunct(t.text[0]) {
		return "", fmt.Errorf("dot: expected identifier, found %q", t.text)
	}
	p.advance()
	return t.text, nil
}

// atAttrList reports whether the lookahead opens an attribute list.
func (p *dotParser) atAttrList() bool {
	return p.tok.ok && !p.tok.quoted && p.tok.text == "["
}

func (p *dotParser) parse() (*Graph, error) {
	// Header: [strict] digraph [name] {
	p.accept("strict")
	if !p.accept("digraph") && !p.accept("graph") {
		return nil, fmt.Errorf("dot: input does not start with digraph")
	}
	name := ""
	if p.tok.ok && p.tok.text != "{" {
		var err error
		name, err = p.ident()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &p.b
	for {
		if p.accept("}") {
			break
		}
		if !p.tok.ok {
			return nil, fmt.Errorf("dot: missing closing brace")
		}
		if p.accept(";") {
			continue
		}
		quoted := p.tok.quoted
		id, err := p.ident()
		if err != nil {
			return nil, err
		}
		// graph-level attribute: key = value
		if p.accept("=") {
			if _, err := p.ident(); err != nil {
				return nil, err
			}
			continue
		}
		if !quoted && (id == "node" || id == "edge" || id == "graph") {
			lo := len(b.attrs)
			if err := p.attrList(); err != nil {
				return nil, err
			}
			if id == "node" {
				b.defaults = normalize(append(b.defaults, b.attrs[lo:]...))
			}
			b.attrs = b.attrs[:lo]
			continue
		}
		// Edge chain?
		if p.accept("->") {
			from := id
			for {
				to, err := p.ident()
				if err != nil {
					return nil, err
				}
				lo := len(b.attrs)
				if p.atAttrList() {
					if err := p.attrList(); err != nil {
						return nil, err
					}
				}
				b.addEdge(from, to, b.seal(lo))
				if !p.accept("->") {
					break
				}
				from = to
			}
			continue
		}
		// Node statement: its attributes over the defaults over what the
		// node already has.
		i, existed := b.declare(id)
		lo := len(b.attrs)
		b.attrs = append(b.attrs, b.defaults...)
		if p.atAttrList() {
			if err := p.attrList(); err != nil {
				return nil, err
			}
		}
		switch {
		case !existed:
			b.nodeAt[i] = b.seal(lo)
		case len(b.attrs) > lo:
			b.merges = append(b.merges, merge{int32(i), b.seal(lo)})
		}
	}
	return b.finish(name), nil
}

// attrList reads "[k=v, ...]" and appends the pairs to the slab.
func (p *dotParser) attrList() error {
	if err := p.expect("["); err != nil {
		return err
	}
	for {
		if p.accept("]") {
			return nil
		}
		key, err := p.ident()
		if err != nil {
			return err
		}
		if err := p.expect("="); err != nil {
			return err
		}
		val, err := p.ident()
		if err != nil {
			return err
		}
		p.b.attrs = append(p.b.attrs, Attr{Key: key, Value: val})
		p.accept(",")
		p.accept(";")
	}
}

// span is a node's or edge's range of the attribute slab.
type span struct{ lo, hi int32 }

// merge is what a later statement gives a node already declared.
type merge struct {
	node int32
	s    span
}

// builder assembles a Graph's slabs. Node and edge attributes are held
// as spans while the slab grows, and become sub-slices in finish.
type builder struct {
	nodes    []Node
	edges    []Edge
	attrs    []Attr
	nodeAt   []span
	edgeAt   []span
	defaults []Attr // node defaults, normalized
	// merges are folded into their nodes' spans in finish, so a
	// redeclaration costs its own attributes, not a copy of the node's.
	merges []merge
	// index maps node ID to position; nil while every node i is named
	// NodeID(i).
	index map[string]int32
}

// init sizes the slabs from cheap counts over the input: a statement a
// line, as Marshal writes them, and an edge per arrow. The counts are
// hints; the slabs grow past them if they must.
func (b *builder) init(input string) {
	lines := strings.Count(input, "\n") + 1
	edges := strings.Count(input, "->")
	nodes := max(lines-edges, 1)
	b.nodes = make([]Node, 0, nodes)
	b.nodeAt = make([]span, 0, nodes)
	b.edges = make([]Edge, 0, edges)
	b.edgeAt = make([]span, 0, edges)
	b.attrs = make([]Attr, 0, strings.Count(input, "="))
}

// declare returns the position of node id, appending it without
// attributes when it is new.
func (b *builder) declare(id string) (int, bool) {
	if b.index == nil {
		pc, ok := canonicalPC(id)
		if ok && pc < len(b.nodes) {
			return pc, true
		}
		if !ok || pc != len(b.nodes) {
			b.index = make(map[string]int32, cap(b.nodes))
			for i := range b.nodes {
				b.index[b.nodes[i].ID] = int32(i)
			}
		}
	}
	if b.index != nil {
		if i, ok := b.index[id]; ok {
			return int(i), true
		}
		b.index[id] = int32(len(b.nodes))
	}
	b.nodes = append(b.nodes, Node{ID: id})
	b.nodeAt = append(b.nodeAt, span{})
	return len(b.nodes) - 1, false
}

// seal normalizes the slab's attributes from lo on and returns their
// span.
func (b *builder) seal(lo int) span {
	b.attrs = b.attrs[:lo+len(normalize(b.attrs[lo:]))]
	return span{int32(lo), int32(len(b.attrs))}
}

// addEdge appends from -> to with attributes s, declaring both
// endpoints.
func (b *builder) addEdge(from, to string, s span) {
	b.declare(from)
	b.declare(to)
	b.edges = append(b.edges, Edge{From: from, To: to})
	b.edgeAt = append(b.edgeAt, s)
}

// normalize sorts attrs by key in place and drops every pair a later
// pair with the same key overrides.
func normalize(attrs []Attr) []Attr {
	slices.SortStableFunc(attrs, func(a, b Attr) int { return strings.Compare(a.Key, b.Key) })
	w := 0
	for i := range attrs {
		if i+1 < len(attrs) && attrs[i+1].Key == attrs[i].Key {
			continue
		}
		attrs[w] = attrs[i]
		w++
	}
	return attrs[:w]
}

// finish folds the merges into their nodes, in statement order, and
// turns the spans into sub-slices of the final slab.
func (b *builder) finish(name string) *Graph {
	slices.SortStableFunc(b.merges, func(x, y merge) int { return cmp.Compare(x.node, y.node) })
	for k := 0; k < len(b.merges); {
		i := b.merges[k].node
		lo := len(b.attrs)
		s := b.nodeAt[i]
		b.attrs = append(b.attrs, b.attrs[s.lo:s.hi]...)
		for ; k < len(b.merges) && b.merges[k].node == i; k++ {
			m := b.merges[k].s
			b.attrs = append(b.attrs, b.attrs[m.lo:m.hi]...)
		}
		b.nodeAt[i] = b.seal(lo)
	}
	sub := func(s span) []Attr {
		if s.lo == s.hi {
			return nil
		}
		return b.attrs[s.lo:s.hi:s.hi]
	}
	for i, s := range b.nodeAt {
		b.nodes[i].Attrs = sub(s)
	}
	for i, s := range b.edgeAt {
		b.edges[i].Attrs = sub(s)
	}
	return &Graph{Name: name, Nodes: b.nodes, Edges: b.edges, index: b.index}
}
