package sql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"stethoscope/internal/storage"
)

// Parse parses a single SELECT statement.
func Parse(query string) (*SelectStmt, error) {
	toks, err := Lex(query)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: query}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF, "") {
		return nil, p.errf("unexpected trailing input %q", p.cur().Text)
	}
	stmt.Text = strings.TrimSpace(query)
	return stmt, nil
}

type parser struct {
	toks []Token
	pos  int
	src  string
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

// kindNames names a token kind in "expected ..." messages.
var kindNames = map[TokenKind]string{
	TokEOF: "end of input", TokIdent: "an identifier", TokKeyword: "a keyword",
	TokNumber: "a number", TokString: "a string", TokOp: "an operator",
}

// expect consumes a token of the kind and, when text is non-empty, of
// exactly that text; with an empty text any token of the kind will do
// and the error names the kind instead.
func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	if text == "" {
		return Token{}, p.errf("expected %s, found %q", kindNames[kind], p.cur().Text)
	}
	return Token{}, p.errf("expected %q, found %q", text, p.cur().Text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: column %d: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(TokKeyword, "select"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.accept(TokKeyword, "distinct")

	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := SelectItem{Expr: e}
		if p.accept(TokKeyword, "as") {
			t, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			item.Alias = t.Text
		} else if p.at(TokIdent, "") {
			item.Alias = p.next().Text
		}
		stmt.Items = append(stmt.Items, item)
		if !p.accept(TokOp, ",") {
			break
		}
	}

	if _, err := p.expect(TokKeyword, "from"); err != nil {
		return nil, err
	}
	tr, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = tr

	for {
		// Comma joins and explicit joins both become JoinClauses; comma
		// joins carry a nil On (cross product restricted by WHERE).
		if p.accept(TokOp, ",") {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			stmt.Joins = append(stmt.Joins, JoinClause{Table: tr})
			continue
		}
		if p.accept(TokKeyword, "inner") {
			if _, err := p.expect(TokKeyword, "join"); err != nil {
				return nil, err
			}
		} else if !p.accept(TokKeyword, "join") {
			break
		}
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "on"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, JoinClause{Table: tr, On: on})
	}

	if p.accept(TokKeyword, "where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}

	if p.accept(TokKeyword, "group") {
		if _, err := p.expect(TokKeyword, "by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}

	if p.accept(TokKeyword, "order") {
		if _, err := p.expect(TokKeyword, "by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(TokKeyword, "desc") {
				item.Desc = true
			} else {
				p.accept(TokKeyword, "asc")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}

	if p.accept(TokKeyword, "limit") {
		t, err := p.expect(TokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errf("bad limit %q", t.Text)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Name: strings.ToLower(t.Text)}
	if p.at(TokIdent, "") {
		tr.Alias = strings.ToLower(p.next().Text)
	}
	return tr, nil
}

// Expression grammar, lowest to highest precedence:
//
//	or -> and ("or" and)*
//	and -> not ("and" not)*
//	not -> "not" not | cmp
//	cmp -> add (( "=" | "!=" | "<>" | "<" | "<=" | ">" | ">=" ) add
//	      | "between" add "and" add)?
//	add -> mul (("+" | "-") mul)*
//	mul -> unary (("*" | "/") unary)*
//	unary -> "-" unary | primary
//	primary -> literal | aggregate | colref | "(" or ")"
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(TokKeyword, "not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	// Postfix NOT for "e not like ..." / "e not in (...)".
	negated := false
	if p.at(TokKeyword, "not") {
		next := p.toks[p.pos+1]
		if next.Kind == TokKeyword && (next.Text == "like" || next.Text == "in") {
			p.next()
			negated = true
		}
	}
	if p.accept(TokKeyword, "like") {
		t, err := p.expect(TokString, "")
		if err != nil {
			return nil, err
		}
		return &LikeExpr{E: l, Pattern: t.Text, Not: negated, Lit: t.Lit}, nil
	}
	if p.accept(TokKeyword, "in") {
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list, Not: negated}, nil
	}
	if negated {
		return nil, p.errf("expected like or in after not")
	}
	if p.accept(TokKeyword, "between") {
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi}, nil
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.accept(TokOp, op) {
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			if op == "<>" {
				op = "!="
			}
			return &BinExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokOp, "+"):
			op = "+"
		case p.accept(TokOp, "-"):
			op = "-"
		default:
			return l, nil
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokOp, "*"):
			op = "*"
		case p.accept(TokOp, "/"):
			op = "/"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(TokOp, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		switch lit := e.(type) {
		case *IntLit:
			lit.Value = -lit.Value
			return lit, nil
		case *FltLit:
			lit.Value = -lit.Value
			return lit, nil
		}
		return &BinExpr{Op: "-", L: &IntLit{Value: 0}, R: e}, nil
	}
	return p.parsePrimary()
}

var aggFuncs = map[string]bool{"sum": true, "count": true, "min": true, "max": true, "avg": true}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.next()
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return &FltLit{Value: f, Lit: t.Lit}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &IntLit{Value: n, Lit: t.Lit}, nil
	case TokString:
		p.next()
		return &StrLit{Value: t.Text, Lit: t.Lit}, nil
	case TokKeyword:
		if t.Text == "date" {
			p.next()
			s, err := p.expect(TokString, "")
			if err != nil {
				return nil, err
			}
			days, err := parseDate(s.Text)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			return &DateLit{Days: days, Text: s.Text, Lit: s.Lit}, nil
		}
		if aggFuncs[t.Text] {
			p.next()
			if _, err := p.expect(TokOp, "("); err != nil {
				return nil, err
			}
			if t.Text == "count" && p.accept(TokOp, "*") {
				if _, err := p.expect(TokOp, ")"); err != nil {
					return nil, err
				}
				return &AggExpr{Func: "count", Star: true}, nil
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return &AggExpr{Func: t.Text, Arg: arg}, nil
		}
		return nil, p.errf("unexpected keyword %q", t.Text)
	case TokIdent:
		p.next()
		name := strings.ToLower(t.Text)
		if p.accept(TokOp, ".") {
			col, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: name, Column: strings.ToLower(col.Text)}, nil
		}
		return &ColRef{Column: name}, nil
	case TokOp:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q", t.Text)
}

// parseDate converts YYYY-MM-DD to days since the Unix epoch.
func parseDate(s string) (int64, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("bad date literal %q (want YYYY-MM-DD)", s)
	}
	return t.Unix() / 86400, nil
}

// FormatDate converts days since the Unix epoch back to YYYY-MM-DD, used
// by result printing and the DateLit round trip.
func FormatDate(days int64) string {
	return string(storage.AppendDate(nil, days))
}
