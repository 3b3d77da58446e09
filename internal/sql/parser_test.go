package sql

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, q string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return stmt
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("select l_tax from lineitem where l_partkey = 1")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{TokKeyword, TokIdent, TokKeyword, TokIdent, TokKeyword, TokIdent, TokOp, TokNumber, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count = %d, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("tok[%d] kind = %v, want %v (%q)", i, toks[i].Kind, k, toks[i].Text)
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := Lex("select 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != TokString || toks[1].Text != "it's" {
		t.Errorf("string = %q", toks[1].Text)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("select 'oops"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := Lex("select @x"); err == nil {
		t.Error("illegal character accepted")
	}
}

func TestParsePaperQuery(t *testing.T) {
	// The exact query from the paper's Figure 1.
	stmt := mustParse(t, "select l_tax from lineitem where l_partkey=1")
	if len(stmt.Items) != 1 {
		t.Fatalf("items = %d", len(stmt.Items))
	}
	col, ok := stmt.Items[0].Expr.(*ColRef)
	if !ok || col.Column != "l_tax" {
		t.Errorf("item = %v", stmt.Items[0])
	}
	if stmt.From.Name != "lineitem" {
		t.Errorf("from = %q", stmt.From.Name)
	}
	cmp, ok := stmt.Where.(*BinExpr)
	if !ok || cmp.Op != "=" {
		t.Fatalf("where = %v", stmt.Where)
	}
	if l, ok := cmp.L.(*ColRef); !ok || l.Column != "l_partkey" {
		t.Errorf("where lhs = %v", cmp.L)
	}
	if r, ok := cmp.R.(*IntLit); !ok || r.Value != 1 {
		t.Errorf("where rhs = %v", cmp.R)
	}
}

func TestParseAggregatesAndGroupBy(t *testing.T) {
	stmt := mustParse(t, `select l_returnflag, sum(l_quantity) as qty, count(*) as n
		from lineitem group by l_returnflag order by l_returnflag`)
	if len(stmt.Items) != 3 {
		t.Fatalf("items = %d", len(stmt.Items))
	}
	agg, ok := stmt.Items[1].Expr.(*AggExpr)
	if !ok || agg.Func != "sum" || stmt.Items[1].Alias != "qty" {
		t.Errorf("sum item = %v", stmt.Items[1])
	}
	star, ok := stmt.Items[2].Expr.(*AggExpr)
	if !ok || !star.Star || star.Func != "count" {
		t.Errorf("count(*) item = %v", stmt.Items[2])
	}
	if len(stmt.GroupBy) != 1 || len(stmt.OrderBy) != 1 {
		t.Errorf("groupby=%d orderby=%d", len(stmt.GroupBy), len(stmt.OrderBy))
	}
}

func TestParseJoins(t *testing.T) {
	stmt := mustParse(t, `select o_orderkey from orders
		join lineitem on l_orderkey = o_orderkey
		join customer on o_custkey = c_custkey`)
	if len(stmt.Joins) != 2 {
		t.Fatalf("joins = %d", len(stmt.Joins))
	}
	if stmt.Joins[0].Table.Name != "lineitem" || stmt.Joins[0].On == nil {
		t.Errorf("join[0] = %+v", stmt.Joins[0])
	}
	// Comma join without ON.
	stmt = mustParse(t, "select a from t1, t2 where x = y")
	if len(stmt.Joins) != 1 || stmt.Joins[0].On != nil {
		t.Errorf("comma join = %+v", stmt.Joins)
	}
	// inner join keyword form.
	stmt = mustParse(t, "select a from t1 inner join t2 on x = y")
	if len(stmt.Joins) != 1 || stmt.Joins[0].On == nil {
		t.Errorf("inner join = %+v", stmt.Joins)
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt := mustParse(t, "select a + b * c from t")
	add, ok := stmt.Items[0].Expr.(*BinExpr)
	if !ok || add.Op != "+" {
		t.Fatalf("top = %v", stmt.Items[0].Expr)
	}
	mul, ok := add.R.(*BinExpr)
	if !ok || mul.Op != "*" {
		t.Errorf("rhs = %v", add.R)
	}
	// and binds tighter than or.
	stmt = mustParse(t, "select a from t where x = 1 or y = 2 and z = 3")
	or, ok := stmt.Where.(*BinExpr)
	if !ok || or.Op != "or" {
		t.Fatalf("where = %v", stmt.Where)
	}
	and, ok := or.R.(*BinExpr)
	if !ok || and.Op != "and" {
		t.Errorf("or rhs = %v", or.R)
	}
	// Parentheses override.
	stmt = mustParse(t, "select (a + b) * c from t")
	mul2, ok := stmt.Items[0].Expr.(*BinExpr)
	if !ok || mul2.Op != "*" {
		t.Errorf("paren expr = %v", stmt.Items[0].Expr)
	}
}

func TestParseBetweenAndDates(t *testing.T) {
	stmt := mustParse(t, "select a from t where d between date '1994-01-01' and date '1995-01-01'")
	bt, ok := stmt.Where.(*BetweenExpr)
	if !ok {
		t.Fatalf("where = %v", stmt.Where)
	}
	lo, ok := bt.Lo.(*DateLit)
	if !ok {
		t.Fatalf("lo = %v", bt.Lo)
	}
	if FormatDate(lo.Days) != "1994-01-01" {
		t.Errorf("date round trip = %s", FormatDate(lo.Days))
	}
	hi := bt.Hi.(*DateLit)
	if hi.Days-lo.Days != 365 {
		t.Errorf("1994 span = %d days", hi.Days-lo.Days)
	}
}

func TestParseNegativeNumbersAndNot(t *testing.T) {
	stmt := mustParse(t, "select a from t where x > -5 and not y = 2.5")
	and := stmt.Where.(*BinExpr)
	gt := and.L.(*BinExpr)
	if lit, ok := gt.R.(*IntLit); !ok || lit.Value != -5 {
		t.Errorf("negative literal = %v", gt.R)
	}
	not, ok := and.R.(*NotExpr)
	if !ok {
		t.Fatalf("not = %v", and.R)
	}
	eq := not.E.(*BinExpr)
	if lit, ok := eq.R.(*FltLit); !ok || lit.Value != 2.5 {
		t.Errorf("float literal = %v", eq.R)
	}
}

func TestParseDistinctAndLimit(t *testing.T) {
	stmt := mustParse(t, "select distinct a from t limit 10")
	if !stmt.Distinct || stmt.Limit != 10 {
		t.Errorf("distinct=%v limit=%d", stmt.Distinct, stmt.Limit)
	}
	stmt = mustParse(t, "select a from t")
	if stmt.Limit != -1 {
		t.Errorf("absent limit = %d", stmt.Limit)
	}
}

func TestParseAliases(t *testing.T) {
	stmt := mustParse(t, "select l.l_tax t from lineitem l")
	if stmt.From.Alias != "l" {
		t.Errorf("table alias = %q", stmt.From.Alias)
	}
	if stmt.Items[0].Alias != "t" {
		t.Errorf("bare alias = %q", stmt.Items[0].Alias)
	}
	col := stmt.Items[0].Expr.(*ColRef)
	if col.Table != "l" || col.Column != "l_tax" {
		t.Errorf("qualified col = %v", col)
	}
}

func TestParseErrors(t *testing.T) {
	// want is a substring of the message; empty accepts any error.
	bad := []struct{ q, want string }{
		{"", ""},
		{"update t set x = 1", `expected "select", found "update"`},
		{"select", ""},
		{"select a from", `expected an identifier, found ""`},
		{"select a from t where", ""},
		{"select a from t limit -1", `expected a number, found "-"`},
		{"select a from t group", `expected "by", found ""`},
		{"select count( from t", ""},
		{"select a from t join u", `expected "on", found ""`},
		{"select a from t where d between 1", `expected "and", found ""`},
		{"select a from t where d = date 'not-a-date'", ""},
		{"select a from t extra garbage", ""},
		{"select a\xfe from t", "illegal character"}, // a byte, not a Latin-1 letter
		// One per kind-only expectation: alias, limit, table, like
		// pattern, date literal, qualified column.
		{"select a as 5 from t", `expected an identifier, found "5"`},
		{"select a from t limit x", `expected a number, found "x"`},
		{"select a from 'lit'", `expected an identifier, found "lit"`},
		{"select a from t where s like 5", `expected a string, found "5"`},
		{"select a from t where d = date 1994", `expected a string, found "1994"`},
		{"select t.'x' from t", `expected an identifier, found "x"`},
	}
	for _, tc := range bad {
		_, err := Parse(tc.q)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", tc.q)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), `expected ""`) {
			t.Errorf("Parse(%q) = %q, want it to say %q", tc.q, err, tc.want)
		}
	}
}

func TestStringRoundTripReparses(t *testing.T) {
	queries := []string{
		"select l_tax from lineitem where l_partkey=1",
		"select distinct a, b + 1 as c from t where x > 2 and y < 3 order by a desc limit 5",
		"select sum(a) from t join u on t.x = u.y group by b",
		"select a from t where d between date '1994-01-01' and date '1995-01-01'",
		"select a from t, u join v on v.z = u.y where t.x = u.y", // comma join: nil On
	}
	for _, q := range queries {
		s1 := mustParse(t, q)
		text := s1.String()
		s2, err := Parse(text)
		if err != nil {
			t.Fatalf("reparse of %q -> %q failed: %v", q, text, err)
		}
		if s2.String() != text {
			t.Errorf("unstable round trip:\n  %q\n  %q", text, s2.String())
		}
	}
}

func TestCaseInsensitivity(t *testing.T) {
	stmt := mustParse(t, "SELECT L_TAX FROM LineItem WHERE l_partkey = 1")
	if stmt.From.Name != "lineitem" {
		t.Errorf("table name = %q", stmt.From.Name)
	}
	col := stmt.Items[0].Expr.(*ColRef)
	if col.Column != "l_tax" {
		t.Errorf("column = %q", col.Column)
	}
	if !strings.Contains(stmt.Text, "SELECT") {
		t.Error("original text should be preserved")
	}
}

func TestParseLikeAndIn(t *testing.T) {
	stmt := mustParse(t, "select a from t where p_type like 'PROMO%' and m in ('AIR', 'MAIL')")
	and := stmt.Where.(*BinExpr)
	like, ok := and.L.(*LikeExpr)
	if !ok || like.Pattern != "PROMO%" || like.Not {
		t.Fatalf("like = %+v", and.L)
	}
	in, ok := and.R.(*InExpr)
	if !ok || len(in.List) != 2 || in.Not {
		t.Fatalf("in = %+v", and.R)
	}
	// Negated forms.
	stmt = mustParse(t, "select a from t where x not like 'y%' and z not in (1, 2)")
	and = stmt.Where.(*BinExpr)
	if nl := and.L.(*LikeExpr); !nl.Not {
		t.Error("not like lost its negation")
	}
	if ni := and.R.(*InExpr); !ni.Not {
		t.Error("not in lost its negation")
	}
	// Round trip.
	text := stmt.String()
	if _, err := Parse(text); err != nil {
		t.Fatalf("reparse %q: %v", text, err)
	}
	// Errors.
	for _, bad := range []string{
		"select a from t where x not 5",
		"select a from t where x like 5",
		"select a from t where x in 1",
		"select a from t where x in ()",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}
