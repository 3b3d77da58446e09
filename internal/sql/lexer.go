// Package sql implements the SQL front-end of the reproduction: a lexer
// and recursive-descent parser for the query subset the Stethoscope demo
// exercises (TPC-H-style select/project/filter/join/group/order/limit).
// The parser produces an AST which internal/algebra binds against the
// catalog and internal/compiler lowers to MAL.
package sql

import (
	"fmt"
	"strings"
)

// TokenKind classifies lexer output.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp // operators and punctuation
)

// Token is a lexical unit with its source position (1-based column).
type Token struct {
	Kind TokenKind
	Text string // keywords are lowercased; identifiers preserve case
	Pos  int
	// Lit numbers the statement's literals from 1 in source order, so
	// a plan template can tell them apart (algebra.Fingerprint); it is
	// 0 for every other token, a LIMIT count included.
	Lit int
}

var keywords = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "by": true,
	"order": true, "limit": true, "and": true, "or": true, "not": true,
	"as": true, "asc": true, "desc": true, "join": true, "on": true,
	"inner": true, "distinct": true, "between": true, "date": true,
	"like": true, "in": true,
	"sum": true, "count": true, "min": true, "max": true, "avg": true,
}

// Lex tokenizes a SQL string. It returns an error on unterminated strings
// or illegal characters.
func Lex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string at column %d", start+1)
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Pos: start + 1})
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(input[i+1])):
			start := i
			for i < n && (isDigit(input[i]) || input[i] == '.') {
				i++
			}
			toks = append(toks, Token{Kind: TokNumber, Text: input[start:i], Pos: start + 1})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			lower := strings.ToLower(word)
			if keywords[lower] {
				toks = append(toks, Token{Kind: TokKeyword, Text: lower, Pos: start + 1})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start + 1})
			}
		default:
			start := i
			var op string
			switch {
			case strings.HasPrefix(input[i:], "<="), strings.HasPrefix(input[i:], ">="),
				strings.HasPrefix(input[i:], "<>"), strings.HasPrefix(input[i:], "!="):
				op = input[i : i+2]
				i += 2
			case strings.ContainsRune("+-*/(),.=<>", rune(c)):
				op = string(c)
				i++
			default:
				return nil, fmt.Errorf("sql: illegal character %q at column %d", c, i+1)
			}
			toks = append(toks, Token{Kind: TokOp, Text: op, Pos: start + 1})
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n + 1})
	lits := 0
	for i, t := range toks {
		if (t.Kind == TokNumber || t.Kind == TokString) && (i == 0 || toks[i-1].Kind != TokKeyword || toks[i-1].Text != "limit") {
			lits++
			toks[i].Lit = lits
		}
	}
	return toks, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// isIdentStart accepts ASCII letters and '_' only: c is one byte of the
// input, not a rune, so any wider notion of "letter" would judge the
// bytes of a UTF-8 sequence one by one as if they were Latin-1.
func isIdentStart(c byte) bool {
	return c == '_' || (c|0x20 >= 'a' && c|0x20 <= 'z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || isDigit(c)
}
