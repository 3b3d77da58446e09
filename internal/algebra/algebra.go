// Package algebra implements the relational-algebra layer of the
// reproduction. MonetDB parses SQL into a relational algebra tree before
// lowering it to MAL (paper §2); this package is that middle stage: it
// binds a sql.SelectStmt against the storage catalog, resolves and type-
// checks every expression, extracts equi-join keys, pushes single-table
// filters below joins, and produces a typed operator tree for
// internal/compiler to lower.
package algebra

import (
	"fmt"
	"strings"

	"stethoscope/internal/storage"
)

// Col describes one column of a relation's schema: its qualifier (table
// alias), name and storage kind.
type Col struct {
	Qual string
	Name string
	Kind storage.Kind
}

// QName returns the qualified "alias.column" display name.
func (c Col) QName() string {
	if c.Qual != "" {
		return c.Qual + "." + c.Name
	}
	return c.Name
}

// Schema is an ordered column list.
type Schema []Col

// Find resolves a possibly-qualified column reference to its ordinal.
// Unqualified names must be unambiguous.
func (s Schema) Find(qual, name string) (int, error) {
	found := -1
	for i, c := range s {
		if c.Name != name {
			continue
		}
		if qual != "" && c.Qual != qual {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("algebra: ambiguous column %q", name)
		}
		found = i
	}
	if found < 0 {
		ref := name
		if qual != "" {
			ref = qual + "." + name
		}
		return -1, fmt.Errorf("algebra: unknown column %q", ref)
	}
	return found, nil
}

// Expr is a bound, typed expression over a relation's columns.
type Expr interface {
	Kind() storage.Kind
	String() string
}

// ColIdx references the input relation's column by ordinal.
type ColIdx struct {
	Idx int
	Col Col
}

func (c *ColIdx) Kind() storage.Kind { return c.Col.Kind }
func (c *ColIdx) String() string     { return c.Col.QName() }

// Const is a typed literal. Lit is the source literal's number in the
// statement (sql.Token.Lit), 0 for a constant the text does not spell.
type Const struct {
	K   storage.Kind
	I   int64
	F   float64
	S   string
	B   bool
	Lit int
}

func (c *Const) Kind() storage.Kind { return c.K }
func (c *Const) String() string {
	switch c.K {
	case storage.Flt:
		return fmt.Sprintf("%g", c.F)
	case storage.Str:
		return "'" + c.S + "'"
	case storage.Bool:
		return fmt.Sprintf("%v", c.B)
	default:
		return fmt.Sprintf("%d", c.I)
	}
}

// Val converts the constant to a storage comparison operand.
func (c *Const) Val() storage.Val {
	return storage.Val{Kind: c.K, I: c.I, F: c.F, S: c.S, B: c.B}
}

// Bin is a typed binary operation; Op is one of + - * / = != < <= > >=
// and or.
type Bin struct {
	Op   string
	L, R Expr
	K    storage.Kind
}

func (b *Bin) Kind() storage.Kind { return b.K }
func (b *Bin) String() string     { return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")" }

// Not negates a boolean expression.
type Not struct{ E Expr }

func (n *Not) Kind() storage.Kind { return storage.Bool }
func (n *Not) String() string     { return "not " + n.E.String() }

// Between is e between lo and hi, inclusive.
type Between struct{ E, Lo, Hi Expr }

func (b *Between) Kind() storage.Kind { return storage.Bool }
func (b *Between) String() string {
	return b.E.String() + " between " + b.Lo.String() + " and " + b.Hi.String()
}

// Like is a SQL LIKE match of a string expression against a constant
// pattern with % and _ wildcards. Lit is the pattern's number in the
// statement, as on Const.
type Like struct {
	E       Expr
	Pattern string
	Lit     int
}

func (l *Like) Kind() storage.Kind { return storage.Bool }
func (l *Like) String() string     { return l.E.String() + " like '" + l.Pattern + "'" }

// Node is a relational operator; Schema describes its output relation.
type Node interface {
	Schema() Schema
	Describe() string
}

// Scan reads the needed columns of one base table.
type Scan struct {
	SchemaName string
	Table      string
	Alias      string
	Out        Schema
}

func (s *Scan) Schema() Schema   { return s.Out }
func (s *Scan) Describe() string { return "scan " + s.SchemaName + "." + s.Table + " as " + s.Alias }

// Filter keeps rows where Pred (boolean) holds.
type Filter struct {
	Input Node
	Pred  Expr
}

func (f *Filter) Schema() Schema   { return f.Input.Schema() }
func (f *Filter) Describe() string { return "filter " + f.Pred.String() }

// Join is an equi-join on one key pair (ordinals into the left and right
// input schemas); output schema is L ++ R.
type Join struct {
	L, R       Node
	LKey, RKey int
	out        Schema
}

func (j *Join) Schema() Schema {
	if j.out == nil {
		j.out = append(append(Schema{}, j.L.Schema()...), j.R.Schema()...)
	}
	return j.out
}

func (j *Join) Describe() string {
	return fmt.Sprintf("join on %s = %s", j.L.Schema()[j.LKey].QName(), j.R.Schema()[j.RKey].QName())
}

// AggSpec is one aggregate output of a GroupAgg.
type AggSpec struct {
	Func      storage.AggrKind
	Arg       Expr // nil for count(*)
	CountStar bool
	Name      string
	K         storage.Kind
}

// GroupAgg groups by Keys and computes Aggs per group. Output schema is
// keys (named KeyNames) followed by aggregates.
type GroupAgg struct {
	Input    Node
	Keys     []Expr
	KeyNames []string
	Aggs     []AggSpec
	out      Schema
}

func (g *GroupAgg) Schema() Schema {
	if g.out == nil {
		for i, k := range g.Keys {
			g.out = append(g.out, Col{Name: g.KeyNames[i], Kind: k.Kind()})
		}
		for _, a := range g.Aggs {
			g.out = append(g.out, Col{Name: a.Name, Kind: a.K})
		}
	}
	return g.out
}

func (g *GroupAgg) Describe() string {
	var parts []string
	for _, k := range g.Keys {
		parts = append(parts, k.String())
	}
	return "group by " + strings.Join(parts, ", ")
}

// Project computes the output expressions.
type Project struct {
	Input Node
	Exprs []Expr
	Names []string
	out   Schema
}

func (p *Project) Schema() Schema {
	if p.out == nil {
		for i, e := range p.Exprs {
			p.out = append(p.out, Col{Name: p.Names[i], Kind: e.Kind()})
		}
	}
	return p.out
}

func (p *Project) Describe() string { return "project " + strings.Join(p.Names, ", ") }

// Distinct removes duplicate output rows.
type Distinct struct{ Input Node }

func (d *Distinct) Schema() Schema   { return d.Input.Schema() }
func (d *Distinct) Describe() string { return "distinct" }

// SortKey orders by the given output ordinal.
type SortKey struct {
	Idx  int
	Desc bool
}

// Sort orders rows by the given keys (ordinals into the input schema),
// first key most significant.
type Sort struct {
	Input Node
	Keys  []SortKey
}

func (s *Sort) Schema() Schema { return s.Input.Schema() }
func (s *Sort) Describe() string {
	var parts []string
	for _, k := range s.Keys {
		d := "asc"
		if k.Desc {
			d = "desc"
		}
		parts = append(parts, fmt.Sprintf("%s %s", s.Input.Schema()[k.Idx].QName(), d))
	}
	return "sort " + strings.Join(parts, ", ")
}

// Limit keeps the first N rows.
type Limit struct {
	Input Node
	N     int64
}

func (l *Limit) Schema() Schema   { return l.Input.Schema() }
func (l *Limit) Describe() string { return fmt.Sprintf("limit %d", l.N) }

// DriverRows estimates the row count that actually parallelizes under
// the compiler's mitosis lowering, plus the cost shape it came from —
// the driving inputs of the adaptive fan-out selection. Joins only
// partition their probe (left) side — the build side is packed and
// hashed once — so a join's driver is its probe subtree, not the
// largest scanned table: a 6M-row build table above a 60k-row probe
// must size the fan-out from 60k. Shapes: "join-probe" when any join
// drives the estimate, "sort" when a sort sits above a plain scan
// pipeline, "scan" otherwise.
func DriverRows(n Node, cat *storage.Catalog) (rows int, shape string) {
	switch t := n.(type) {
	case *Scan:
		if tb, ok := cat.Table(t.SchemaName, t.Table); ok {
			return tb.Rows(), "scan"
		}
		return 0, "scan"
	case *Join:
		rows, _ = DriverRows(t.L, cat)
		return rows, "join-probe"
	case *Sort:
		rows, shape = DriverRows(t.Input, cat)
		if shape == "scan" && consumesSlices(t.Input) {
			shape = "sort"
		}
		return rows, shape
	case *Filter:
		return DriverRows(t.Input, cat)
	case *GroupAgg:
		return DriverRows(t.Input, cat)
	case *Project:
		return DriverRows(t.Input, cat)
	case *Distinct:
		return DriverRows(t.Input, cat)
	case *Limit:
		return DriverRows(t.Input, cat)
	}
	return 0, "scan"
}

// consumesSlices reports whether a sort above n would receive the
// mitosis (partitioned) form: row-local operators and join outputs stay
// sliced, while aggregation and distinct recombine to a packed — and
// usually tiny — relation whose sort no longer drives the fan-out.
func consumesSlices(n Node) bool {
	switch t := n.(type) {
	case *Scan:
		return true
	case *Filter:
		return consumesSlices(t.Input)
	case *Project:
		return consumesSlices(t.Input)
	case *Join:
		return true
	}
	return false
}

// Tree renders the operator tree as an indented listing, for debugging
// and the server's EXPLAIN-style output.
func Tree(n Node) string {
	var b strings.Builder
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Describe())
		b.WriteByte('\n')
		for _, in := range inputs(n) {
			walk(in, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// Fingerprint renders everything of a bound tree the lowering reads,
// except the values of its source literals (SourceLiterals), which it
// writes as ?<Lit>. Two trees with one fingerprint lower to the same
// plan up to those values and the statement text, so it keys plan
// templates (internal/plancache). It spells what else of the literals
// the plan depends on: the binder reads literal text beyond the values
// (it names an unaliased output column after its expression, and
// matches group keys and aggregates by their text), which the schema
// names carry, and the compiler folds an operator over constants into
// one computed constant, whose literals the fingerprint therefore
// spells.
func Fingerprint(n Node) string {
	var b []byte
	var expr func(e Expr, folded bool)
	expr = func(e Expr, folded bool) {
		switch t := e.(type) {
		case *ColIdx:
			b = fmt.Appendf(b, "#%d:%s.%s:%d", t.Idx, t.Col.Qual, t.Col.Name, t.Col.Kind)
		case *Const:
			if t.Lit > 0 && !folded {
				b = fmt.Appendf(b, "?%d:%d", t.Lit, t.K)
			} else {
				b = fmt.Appendf(b, "%d:%d:%x:%q:%t", t.K, t.I, t.F, t.S, t.B)
			}
		case *Bin:
			folded = folded || constant(t)
			b = fmt.Appendf(b, "(%s:%d ", t.Op, t.K)
			expr(t.L, folded)
			b = append(b, ' ')
			expr(t.R, folded)
			b = append(b, ')')
		case *Not:
			b = append(b, "(not "...)
			expr(t.E, folded || constant(t))
			b = append(b, ')')
		case *Between:
			b = append(b, "(between "...)
			expr(t.E, folded)
			b = append(b, ' ')
			expr(t.Lo, folded)
			b = append(b, ' ')
			expr(t.Hi, folded)
			b = append(b, ')')
		case *Like:
			b = append(b, "(like "...)
			expr(t.E, folded)
			if t.Lit > 0 {
				b = fmt.Appendf(b, " ?%d)", t.Lit)
			} else {
				b = fmt.Appendf(b, " %q)", t.Pattern)
			}
		default:
			b = fmt.Appendf(b, "%T", e)
		}
	}
	var node func(Node)
	node = func(n Node) {
		b = fmt.Appendf(b, "%T{", n)
		for _, c := range n.Schema() {
			b = fmt.Appendf(b, "%s.%s:%d,", c.Qual, c.Name, c.Kind)
		}
		b = append(b, '|')
		switch t := n.(type) {
		case *Scan:
			b = fmt.Appendf(b, "%s.%s", t.SchemaName, t.Table)
		case *Join:
			b = fmt.Appendf(b, "%d=%d", t.LKey, t.RKey)
		case *GroupAgg:
			for _, a := range t.Aggs {
				b = fmt.Appendf(b, "%d:%t,", a.Func, a.CountStar)
			}
		case *Sort:
			b = fmt.Appendf(b, "%v", t.Keys)
		case *Limit:
			b = fmt.Appendf(b, "%d", t.N)
		}
		b = append(b, '|')
		exprs(n, func(e Expr) {
			expr(e, false)
			b = append(b, ',')
		})
		for _, in := range inputs(n) {
			node(in)
		}
		b = append(b, '}')
	}
	node(n)
	return string(b)
}

// SourceLiterals calls visit with every source literal of the tree that
// the compiler keeps as a constant of its own: a Const or Like with a
// non-zero Lit, outside any operator over constants only (which the
// compiler folds).
func SourceLiterals(n Node, visit func(lit int, e Expr)) {
	var expr func(Expr)
	expr = func(e Expr) {
		switch t := e.(type) {
		case *Const:
			if t.Lit > 0 {
				visit(t.Lit, t)
			}
		case *Bin:
			if !constant(t) {
				expr(t.L)
				expr(t.R)
			}
		case *Not:
			if !constant(t) {
				expr(t.E)
			}
		case *Between:
			expr(t.E)
			expr(t.Lo)
			expr(t.Hi)
		case *Like:
			expr(t.E)
			if t.Lit > 0 {
				visit(t.Lit, t)
			}
		}
	}
	var node func(Node)
	node = func(n Node) {
		exprs(n, expr)
		for _, in := range inputs(n) {
			node(in)
		}
	}
	node(n)
}

// constant reports an expression of constants and operators only: the
// compiler folds it into one constant.
func constant(e Expr) bool {
	switch t := e.(type) {
	case *Const:
		return true
	case *Bin:
		return constant(t.L) && constant(t.R)
	case *Not:
		return constant(t.E)
	}
	return false
}

// exprs calls f with the expressions a node itself holds.
func exprs(n Node, f func(Expr)) {
	switch t := n.(type) {
	case *Filter:
		f(t.Pred)
	case *GroupAgg:
		for _, k := range t.Keys {
			f(k)
		}
		for _, a := range t.Aggs {
			if a.Arg != nil {
				f(a.Arg)
			}
		}
	case *Project:
		for _, e := range t.Exprs {
			f(e)
		}
	}
}

// inputs returns a node's input nodes.
func inputs(n Node) []Node {
	switch t := n.(type) {
	case *Filter:
		return []Node{t.Input}
	case *Join:
		return []Node{t.L, t.R}
	case *GroupAgg:
		return []Node{t.Input}
	case *Project:
		return []Node{t.Input}
	case *Distinct:
		return []Node{t.Input}
	case *Sort:
		return []Node{t.Input}
	case *Limit:
		return []Node{t.Input}
	}
	return nil
}
