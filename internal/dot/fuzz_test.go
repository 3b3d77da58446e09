package dot_test

import (
	"reflect"
	"strings"
	"testing"

	"stethoscope/internal/algebra"
	"stethoscope/internal/compiler"
	"stethoscope/internal/dot"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/sql"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
)

// bundledDots renders the dot files of the bundled queries' optimized
// plans, sequential and at 4 partitions — the files offline analysis
// reads.
func bundledDots(tb testing.TB) []string {
	tb.Helper()
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.001, Seed: 42}); err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, q := range tpch.Queries() {
		stmt, err := sql.Parse(strings.Join(strings.Fields(q.SQL), " "))
		if err != nil {
			tb.Fatal(err)
		}
		tree, err := algebra.Bind(stmt, cat)
		if err != nil {
			tb.Fatal(err)
		}
		for _, parts := range []int{1, 4} {
			plan, err := compiler.Compile(tree, stmt.Text, compiler.Options{Partitions: parts})
			if err != nil {
				tb.Fatal(err)
			}
			if plan, _, err = optimizer.Default().Run(plan); err != nil {
				tb.Fatal(err)
			}
			out = append(out, dot.Export(plan).Marshal())
		}
	}
	return out
}

// FuzzDotParse: dot text arrives from outside the program (offline
// mode reads files). No input may panic Parse, and whatever parses
// re-marshals to text that parses to the same graph.
func FuzzDotParse(f *testing.F) {
	for _, text := range bundledDots(f) {
		f.Add(text)
	}
	for _, text := range dotRegressions {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		g, err := dot.Parse(text)
		if err != nil {
			return
		}
		checkRemarshal(t, g)
	})
}

// dotRegressions each once failed the round trip.
var dotRegressions = []string{
	// A node without a shape picked up Marshal's node-default line.
	"digraph g { a; }",
	// An attribute key that is not a bare word lost its quotes.
	`graph{0[""=0]}`,
	`digraph g { a ["two words"=x]; }`,
	// A node named like a statement keyword read back as that statement.
	"digraph g { a -> node; }",
	`digraph g { "edge" [label=x]; }`,
}

// TestDotRegressions replays dotRegressions without the fuzzing engine.
func TestDotRegressions(t *testing.T) {
	for _, text := range dotRegressions {
		g, err := dot.Parse(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		checkRemarshal(t, g)
	}
}

// checkRemarshal holds Marshal and Parse to each other: the text g
// marshals to parses back to g.
func checkRemarshal(t *testing.T, g *dot.Graph) {
	t.Helper()
	text := g.Marshal()
	back, err := dot.Parse(text)
	if err != nil {
		t.Fatalf("re-marshaled graph does not parse: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(g, back) {
		t.Fatalf("re-marshaled graph parses to another graph:\n%s\nreparsed:\n%s", text, back.Marshal())
	}
}
