package sql

import (
	"fmt"
	"strings"
)

// Expr is a SQL expression node.
type Expr interface {
	fmt.Stringer
	expr()
}

// ColRef references a column, optionally qualified by table or alias.
type ColRef struct {
	Table  string // optional qualifier
	Column string
}

func (c *ColRef) expr() {}
func (c *ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// IntLit is an integer literal. Lit, here and on the other literals, is
// the literal's Token.Lit: its number in the statement's shape, 0 for a
// literal the text does not spell (the 0 of a unary minus).
type IntLit struct {
	Value int64
	Lit   int
}

func (l *IntLit) expr()          {}
func (l *IntLit) String() string { return fmt.Sprintf("%d", l.Value) }

// FltLit is a floating-point literal.
type FltLit struct {
	Value float64
	Lit   int
}

func (l *FltLit) expr()          {}
func (l *FltLit) String() string { return fmt.Sprintf("%g", l.Value) }

// StrLit is a string literal.
type StrLit struct {
	Value string
	Lit   int
}

func (l *StrLit) expr()          {}
func (l *StrLit) String() string { return "'" + strings.ReplaceAll(l.Value, "'", "''") + "'" }

// DateLit is a date literal written date 'YYYY-MM-DD', stored as days
// since the Unix epoch.
type DateLit struct {
	Days int64
	Text string // original YYYY-MM-DD spelling
	Lit  int
}

func (l *DateLit) expr()          {}
func (l *DateLit) String() string { return "date '" + l.Text + "'" }

// BinExpr is a binary operation: arithmetic (+ - * /), comparison
// (= != < <= > >=) or boolean (and, or).
type BinExpr struct {
	Op   string
	L, R Expr
}

func (b *BinExpr) expr() {}
func (b *BinExpr) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// NotExpr is boolean negation.
type NotExpr struct{ E Expr }

func (n *NotExpr) expr()          {}
func (n *NotExpr) String() string { return "not " + n.E.String() }

// BetweenExpr is "e between lo and hi" (inclusive both ends).
type BetweenExpr struct {
	E, Lo, Hi Expr
}

func (b *BetweenExpr) expr() {}
func (b *BetweenExpr) String() string {
	return b.E.String() + " between " + b.Lo.String() + " and " + b.Hi.String()
}

// LikeExpr is "e [not] like 'pattern'" with SQL wildcards % and _.
// Lit is the pattern literal's Token.Lit.
type LikeExpr struct {
	E       Expr
	Pattern string
	Not     bool
	Lit     int
}

func (l *LikeExpr) expr() {}
func (l *LikeExpr) String() string {
	op := " like "
	if l.Not {
		op = " not like "
	}
	return l.E.String() + op + "'" + strings.ReplaceAll(l.Pattern, "'", "''") + "'"
}

// InExpr is "e [not] in (v1, v2, ...)".
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

func (i *InExpr) expr() {}
func (i *InExpr) String() string {
	var b strings.Builder
	b.WriteString(i.E.String())
	if i.Not {
		b.WriteString(" not")
	}
	b.WriteString(" in (")
	for k, e := range i.List {
		if k > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	b.WriteString(")")
	return b.String()
}

// AggExpr is an aggregate call: sum/count/min/max/avg. Star marks
// count(*).
type AggExpr struct {
	Func string
	Arg  Expr // nil when Star
	Star bool
}

func (a *AggExpr) expr() {}
func (a *AggExpr) String() string {
	if a.Star {
		return a.Func + "(*)"
	}
	return a.Func + "(" + a.Arg.String() + ")"
}

// SelectItem is one output expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

func (s SelectItem) String() string {
	if s.Alias != "" {
		return s.Expr.String() + " as " + s.Alias
	}
	return s.Expr.String()
}

// TableRef names a base table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

func (t TableRef) String() string {
	if t.Alias != "" {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

// JoinClause is one "join T on cond" step applied after the first table.
type JoinClause struct {
	Table TableRef
	On    Expr
}

// OrderItem is one order-by key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is the parsed query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Joins    []JoinClause
	Where    Expr // nil when absent
	GroupBy  []Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
	Text     string
}

// String reconstructs a canonical SQL rendering of the statement.
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("select ")
	if s.Distinct {
		b.WriteString("distinct ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	b.WriteString(" from ")
	b.WriteString(s.From.String())
	for _, j := range s.Joins {
		if j.On == nil { // comma join: restricted by WHERE, not ON
			b.WriteString(", ")
			b.WriteString(j.Table.String())
			continue
		}
		b.WriteString(" join ")
		b.WriteString(j.Table.String())
		b.WriteString(" on ")
		b.WriteString(j.On.String())
	}
	if s.Where != nil {
		b.WriteString(" where ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" group by ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" order by ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" desc")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " limit %d", s.Limit)
	}
	return b.String()
}
