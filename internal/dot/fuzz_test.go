package dot_test

import (
	"reflect"
	"slices"
	"sort"
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
// mode reads files). No input may panic Parse; Parse and the reference
// reader (ref_parse_test.go) accept the same inputs and read them to the
// same graph; and whatever parses re-marshals to text that parses to the
// same graph.
func FuzzDotParse(f *testing.F) {
	for _, text := range bundledDots(f) {
		f.Add(text)
	}
	for _, text := range dotRegressions {
		f.Add(text)
	}
	for _, text := range readerCorners {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		g, err := dot.Parse(text)
		checkReference(t, text, g, err)
		if err != nil {
			return
		}
		checkRemarshal(t, g)
	})
}

// checkReference holds Parse's verdict on text (g, err) to the reference
// reader's: both reject, or both accept with the same name, the same node
// IDs in order with the same attributes, and the same edges.
func checkReference(t *testing.T, text string, g *dot.Graph, err error) {
	t.Helper()
	ref, refErr := refParse(text)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Parse error %v, reference error %v, on %q", err, refErr, text)
	}
	if err != nil {
		return
	}
	if g.Name != ref.Name {
		t.Fatalf("name %q, reference %q", g.Name, ref.Name)
	}
	if len(g.Nodes) != len(ref.Nodes) || len(g.Edges) != len(ref.Edges) {
		t.Fatalf("%d nodes, %d edges; reference %d, %d", len(g.Nodes), len(g.Edges), len(ref.Nodes), len(ref.Edges))
	}
	for i, n := range g.Nodes {
		r := ref.Nodes[i]
		if n.ID != r.ID || !slices.Equal(n.Attrs, sortedAttrs(r.Attrs)) || n.Label() != r.Label() {
			t.Fatalf("node %d is %q %v, reference %q %v", i, n.ID, n.Attrs, r.ID, r.Attrs)
		}
	}
	for i, e := range g.Edges {
		r := ref.Edges[i]
		from, to := g.Nodes[e.From].ID, g.Nodes[e.To].ID
		if from != r.From || to != r.To || !slices.Equal(e.Attrs, sortedAttrs(r.Attrs)) {
			t.Fatalf("edge %d is %q -> %q %v, reference %q -> %q %v", i, from, to, e.Attrs, r.From, r.To, r.Attrs)
		}
	}
}

func sortedAttrs(m map[string]string) []dot.Attr {
	var out []dot.Attr
	for k, v := range m {
		out = append(out, dot.Attr{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
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

// readerCorners are inputs where a one-pass reader could part from the
// reference: escapes, redeclared nodes, defaults, repeated keys, text
// after the closing brace, and tokens the reference reads as names.
var readerCorners = []string{
	`digraph g { n0 [label="q\"uote back\\slash line\nfeed \l"]; n0 -> n1; }`,
	`digraph g { n0 [a=1, b=2]; node [b=3, c=4]; n0; n0 [a=5, a=6]; n2 -> n0 [x=1, x=2] -> n1; }`,
	`digraph g { n1; n0; n1 -> n0; n01; n2 [label=x] }`,
	`digraph g { } # trailing comment`,
	`digraph g { } "unterminated`,
	`digraph g { } /* unterminated`,
	`digraph "{" { }`,
	`digraph -> { -> ; a -> -> }`,
	`digraph g { k = v; edge [style=bold]; graph [rankdir=LR]; a/b#c -> "d" }`,
}

// TestDotRegressions replays dotRegressions without the fuzzing engine.
func TestDotRegressions(t *testing.T) {
	for _, text := range dotRegressions {
		g, err := dot.Parse(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		checkReference(t, text, g, err)
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
