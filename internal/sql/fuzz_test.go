package sql

import "testing"

// FuzzParse: Parse takes statement text straight off the wire (the
// server's QUERY line), so no input may panic it, and whatever it
// accepts must render to text it accepts again.
func FuzzParse(f *testing.F) {
	for _, q := range []string{
		"select l_tax from lineitem where l_partkey=1",
		"select distinct a, b + 1 as c from t where x > 2 and y < 3 order by a desc limit 5",
		"select sum(a), count(*) from t join u on t.x = u.y group by b",
		"select a from t, u where t.x = u.y and d between date '1994-01-01' and date '1995-01-01'",
		"select a from t where s like 'x%' or s not in ('a', 'b') and not (a <> -1.5e3)",
		"select a from t limit -1",
		"select 'unterminated",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, text string) {
		stmt, err := Parse(text)
		if err != nil {
			return
		}
		if _, err := Parse(stmt.String()); err != nil {
			t.Fatalf("Parse(%q) rendered %q, which does not reparse: %v", text, stmt.String(), err)
		}
	})
}
