package trace_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"stethoscope/internal/algebra"
	"stethoscope/internal/compiler"
	"stethoscope/internal/dot"
	"stethoscope/internal/engine"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/profiler"
	"stethoscope/internal/sql"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
	"stethoscope/internal/trace"
)

// bundledTraces runs the bundled queries' optimized plans, sequential
// and at 4 partitions on 2 workers, and returns the trace files they
// write — the files offline analysis reads.
func bundledTraces(tb testing.TB) []string {
	tb.Helper()
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.001, Seed: 42}); err != nil {
		tb.Fatal(err)
	}
	eng := engine.New(cat)
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
			sink := profiler.NewOwnedSliceSink(0)
			if _, err := eng.Run(plan, engine.Options{Workers: 2, Profiler: profiler.New(sink)}); err != nil {
				tb.Fatal(err)
			}
			var b strings.Builder
			if err := trace.Write(&b, sink.Take()); err != nil {
				tb.Fatal(err)
			}
			out = append(out, b.String())
		}
	}
	return out
}

// FuzzTraceLoad: trace text arrives from outside the program (offline
// mode reads files). No input may panic LoadString; LoadString and the
// reference reader (ref_load_test.go) accept the same inputs and read
// them to the same events; whatever loads maps onto one fixed graph
// (mappingGraph) to the same verdict as the indexed reference
// (ref_map_test.go); and whatever loads re-serialises through the
// trace-file writer to text that loads to the same events.
func FuzzTraceLoad(f *testing.F) {
	g, err := dot.Parse(mappingGraph)
	if err != nil {
		f.Fatal(err)
	}
	for _, text := range bundledTraces(f) {
		f.Add(text)
	}
	f.Add("# comment\n\nevent=0 status=start pc=-3 stmt=\"\\xff\" extra=1\r\nevent=1 status=\"done\" pc=2 usec=+7 stmt=\"a\"\n")
	f.Add("event=0 status=start pc=1 stmt=\"q\\\"uote back\\\\slash line\\nfeed \\u00e9\"\r\n  # indented comment\r\n" +
		"event=1 status=done pc=1 stmt=\"raw \xff byte\" unknown=\"x y\"")
	f.Add("event=0 status=start pc=0 stmt=\"\"\nevent=1 status=start pc=0 stmt=\"a\"\nevent=2 status=done pc=2 stmt=\"wrong\"\n" +
		"event=3 status=start pc=7 stmt=\"c\"\nevent=4 status=start pc=-3 stmt=\"d\"\nevent=5 status=start pc=4 stmt=\"a\"")
	f.Add("event=0 status=start pc=1 unknown=\"\\q\"")
	f.Add("event=0 status=start pc=1 stmt=\"a\nb\"")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := trace.LoadString(text)
		ref, refErr := refLoad(strings.NewReader(text))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("LoadString error %v, reference error %v, on %q", err, refErr, text)
		}
		if err != nil {
			return
		}
		if !slices.Equal(s.Events(), ref.Events()) {
			t.Fatalf("LoadString read %+v, reference %+v", s.Events(), ref.Events())
		}
		checkMapping(t, s.Events(), g)
		var b strings.Builder
		if err := trace.Write(&b, s.Events()); err != nil {
			t.Fatal(err)
		}
		back, err := trace.LoadString(b.String())
		if err != nil {
			t.Fatalf("re-serialised trace does not load: %v\n%s", err, b.String())
		}
		if !reflect.DeepEqual(s.Events(), back.Events()) {
			t.Fatalf("re-serialised trace loads to other events:\n%s", b.String())
		}
	})
}
