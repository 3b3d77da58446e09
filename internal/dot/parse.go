package dot

import (
	"fmt"
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
func Parse(input string) (*Graph, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &dotParser{toks: toks}
	return p.parse()
}

type dotToken struct {
	text   string
	quoted bool
}

func lex(input string) ([]dotToken, error) {
	var toks []dotToken
	i, n := 0, len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '#':
			for i < n && input[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && input[i+1] == '/':
			for i < n && input[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && input[i+1] == '*':
			end := strings.Index(input[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("dot: unterminated block comment")
			}
			i += end + 4
		case c == '"':
			var b strings.Builder
			i++
			closed := false
			for i < n {
				if input[i] == '\\' && i+1 < n {
					switch input[i+1] {
					case 'n':
						b.WriteByte('\n')
					case '"':
						b.WriteByte('"')
					case '\\':
						b.WriteByte('\\')
					default:
						b.WriteByte('\\')
						b.WriteByte(input[i+1])
					}
					i += 2
					continue
				}
				if input[i] == '"' {
					closed = true
					i++
					break
				}
				b.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("dot: unterminated string")
			}
			toks = append(toks, dotToken{text: b.String(), quoted: true})
		case c == '-' && i+1 < n && input[i+1] == '>':
			toks = append(toks, dotToken{text: "->"})
			i += 2
		case strings.ContainsRune("{}[];,=", rune(c)):
			toks = append(toks, dotToken{text: string(c)})
			i++
		default:
			start := i
			for i < n && !strings.ContainsRune(" \t\n\r{}[];,=\"", rune(input[i])) &&
				!(input[i] == '-' && i+1 < n && input[i+1] == '>') {
				i++
			}
			if i == start {
				return nil, fmt.Errorf("dot: illegal character %q", c)
			}
			toks = append(toks, dotToken{text: input[start:i]})
		}
	}
	return toks, nil
}

type dotParser struct {
	toks []dotToken
	pos  int
}

func (p *dotParser) cur() (dotToken, bool) {
	if p.pos < len(p.toks) {
		return p.toks[p.pos], true
	}
	return dotToken{}, false
}

func (p *dotParser) accept(text string) bool {
	if t, ok := p.cur(); ok && !t.quoted && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *dotParser) expect(text string) error {
	if p.accept(text) {
		return nil
	}
	t, ok := p.cur()
	if !ok {
		return fmt.Errorf("dot: expected %q at end of input", text)
	}
	return fmt.Errorf("dot: expected %q, found %q", text, t.text)
}

func (p *dotParser) ident() (string, error) {
	t, ok := p.cur()
	if !ok {
		return "", fmt.Errorf("dot: unexpected end of input")
	}
	if !t.quoted && strings.ContainsAny(t.text, "{}[];,=") {
		return "", fmt.Errorf("dot: expected identifier, found %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *dotParser) parse() (*Graph, error) {
	// Header: [strict] digraph [name] {
	p.accept("strict")
	if !p.accept("digraph") && !p.accept("graph") {
		return nil, fmt.Errorf("dot: input does not start with digraph")
	}
	name := ""
	if t, ok := p.cur(); ok && t.text != "{" {
		var err error
		name, err = p.ident()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	g := NewGraph(name)
	nodeDefaults := map[string]string{}

	for {
		if p.accept("}") {
			break
		}
		if _, ok := p.cur(); !ok {
			return nil, fmt.Errorf("dot: missing closing brace")
		}
		if p.accept(";") {
			continue
		}
		t, _ := p.cur()
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
		switch {
		case !t.quoted && (id == "node" || id == "edge" || id == "graph"):
			attrs, err := p.attrList()
			if err != nil {
				return nil, err
			}
			if id == "node" {
				for k, v := range attrs {
					nodeDefaults[k] = v
				}
			}
			continue
		}
		// Edge chain?
		if p.acceptArrow() {
			from := id
			for {
				to, err := p.ident()
				if err != nil {
					return nil, err
				}
				attrs := map[string]string{}
				if t, ok := p.cur(); ok && t.text == "[" && !t.quoted {
					attrs, err = p.attrList()
					if err != nil {
						return nil, err
					}
				}
				g.AddEdge(from, to, attrs)
				if !p.acceptArrow() {
					break
				}
				from = to
			}
			continue
		}
		// Node statement.
		attrs := map[string]string{}
		for k, v := range nodeDefaults {
			attrs[k] = v
		}
		if t, ok := p.cur(); ok && t.text == "[" && !t.quoted {
			extra, err := p.attrList()
			if err != nil {
				return nil, err
			}
			for k, v := range extra {
				attrs[k] = v
			}
		}
		g.AddNode(id, attrs)
	}
	return g, nil
}

func (p *dotParser) acceptArrow() bool { return p.accept("->") }

func (p *dotParser) attrList() (map[string]string, error) {
	attrs := map[string]string{}
	if err := p.expect("["); err != nil {
		return nil, err
	}
	for {
		if p.accept("]") {
			return attrs, nil
		}
		key, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		val, err := p.ident()
		if err != nil {
			return nil, err
		}
		attrs[key] = val
		p.accept(",")
		p.accept(";")
	}
}
