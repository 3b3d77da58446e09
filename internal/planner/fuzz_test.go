package planner

import (
	"strings"
	"testing"

	"stethoscope/internal/adaptive"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/plancache"
	"stethoscope/internal/sql"
	"stethoscope/internal/tpch"
)

// fuzzServing is the serving planner every fuzz input compiles through,
// so templates made by one input serve the next.
var fuzzServing = func() *Planner {
	p := newFootprintPlanner(plancache.DefaultSize)
	p.Flight = NewCompileFlight()
	return p
}()

// substitute renders statement text with its i-th literal (sql.Token.Lit
// i+1) replaced by lits[i] where lits has one: a run of digits and dots,
// after an optional minus, as a number, any other text as a quoted
// string. The rest keep their source spelling; tokens are joined by
// single spaces.
func substitute(text string, lits []string) (string, error) {
	toks, err := sql.Lex(text)
	if err != nil {
		return "", err
	}
	quote := func(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }
	words := make([]string, 0, len(toks))
	for _, tok := range toks[:len(toks)-1] {
		w := tok.Text
		switch {
		case tok.Lit > 0 && tok.Lit <= len(lits):
			w = lits[tok.Lit-1]
			if digits := strings.TrimPrefix(w, "-"); strings.Trim(digits, "0123456789.") != "" || digits == "" {
				w = quote(w)
			}
		case tok.Kind == sql.TokString:
			w = quote(w)
		}
		words = append(words, w)
	}
	return strings.Join(words, " "), nil
}

// FuzzTemplateMatchesCompile: literal values and kinds the fuzzer picks,
// substituted into the sweep statements, compile through a serving
// planner — an instance of a template wherever the key matches — to
// exactly what a fresh compile of the same text gives, error included.
// And Lex, whose literal numbers the template key rests on and which
// reads statement text off the wire, never panics on arbitrary bytes
// and numbers the literals it finds 1, 2, … in order.
func FuzzTemplateMatchesCompile(f *testing.F) {
	f.Add(uint8(0), "", "select l_tax from lineitem where l_partkey=1")
	f.Add(uint8(3), "1994-02-01|1994-11-30|0.04|0.06|23", "select 'a''b', 1.5 from t limit 3")
	f.Add(uint8(7), "Brand#13|2|12|Brand#23|10|20|Brand#34|20|30", "select 'unterminated")
	f.Add(uint8(30), "MAIL|MAIL|1994-01-01|1994-01-01", "select ?")
	f.Add(uint8(12), "x|-1|1e5|", "date '1994-01-01' - 3")
	// "l_quantity < 3" at 7 partitions and at Auto: a template made by
	// 0.0 serves -0.0 and the other way round. Equal under ==, they are
	// different literals, and an instance renders its own. Then Q12's
	// ship modes as strings with a quote in them, at 7 partitions.
	f.Add(uint8(31), "0.0", "")
	f.Add(uint8(31), "-0.0", "")
	f.Add(uint8(50), "-0.0", "")
	f.Add(uint8(50), "0.0", "")
	f.Add(uint8(24), "O'Brien|SHIP|1994-01-01|1995-01-01", "")
	f.Add(uint8(24), "MAIL|it's|1994-01-01|1995-01-01", "")
	stmts := tpch.SweepQueries()
	pl := optimizer.Default()
	fresh := &Planner{Cat: testCat, Pipeline: pl, PassSpec: pl.Spec()}
	f.Fuzz(func(t *testing.T, which uint8, lits string, raw string) {
		if toks, err := sql.Lex(raw); err == nil {
			n := 0
			for _, tok := range toks {
				if tok.Lit > 0 {
					if n++; tok.Lit != n {
						t.Fatalf("Lex(%q): literal %q numbered %d, want %d", raw, tok.Text, tok.Lit, n)
					}
				}
			}
		}

		base := stmts[int(which)%len(stmts)]
		parts := []int{1, 7, adaptive.Auto}[int(which)/len(stmts)%3]
		if _, err := fuzzServing.Compile(base, parts, false); err != nil {
			t.Fatalf("%q: %v", base, err)
		}
		var pieces []string
		if lits != "" {
			pieces = strings.Split(lits, "|")
		}
		s, err := substitute(base, pieces)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fuzzServing.Compile(s, parts, false)
		want, werr := fresh.Compile(s, parts, false)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("%q: serving planner says %v, a fresh compile %v", s, err, werr)
		}
		if err == nil {
			samePlan(t, s, got, want)
		}
	})
}
