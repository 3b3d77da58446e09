package stethoscope

import (
	"testing"

	"stethoscope/internal/core"
	"stethoscope/internal/dot"
	"stethoscope/internal/mal"
	"stethoscope/internal/trace"
)

// The numbers bench/ cannot see: allocations and time of the client half
// on the largest pair the benchmark walks (Q3 at 64 partitions, ~2300
// nodes), and of the plan's picture formats on a bundled plan (Q6 at 64
// partitions, ~1000 nodes), as go-test benchmarks with allocation
// ceilings beside them.

func mustPicturePair(tb testing.TB) (dotText, traceText string) {
	tb.Helper()
	res := mustPictureRun(tb, "Q3")
	return res.Dot(), res.TraceText()
}

// mustPictureRun executes a bundled query at 64 partitions.
func mustPictureRun(tb testing.TB, id string) *Result {
	tb.Helper()
	db, err := Open(WithScaleFactor(0.01), WithWorkers(1))
	if err != nil {
		tb.Fatal(err)
	}
	defer db.Close()
	return execBundled(tb, db, id, 64)
}

// formatsPlan is Q6 at 64 partitions: its executed plan, its dot text
// and its trace text.
func formatsPlan(tb testing.TB) (plan *mal.Plan, dotText, traceText string) {
	tb.Helper()
	res := mustPictureRun(tb, "Q6")
	return res.prep.Plan, res.Dot(), res.TraceText()
}

func BenchmarkDotParse(b *testing.B) {
	_, dotText, _ := formatsPlan(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(dotText)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dot.Parse(dotText); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDotMarshal(b *testing.B) {
	plan, _, _ := formatsPlan(b)
	g := dot.Export(plan)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pictureSink = len(g.Marshal())
	}
}

func BenchmarkDotExport(b *testing.B) {
	plan, _, _ := formatsPlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pictureSink = len(dot.Export(plan).Marshal())
	}
}

func BenchmarkTraceLoad(b *testing.B) {
	_, _, traceText := formatsPlan(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(traceText)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.LoadString(traceText); err != nil {
			b.Fatal(err)
		}
	}
}

// timeToPicture is the picture half of the benchmark's analyze-offline
// op: open, paint, recolour, paint.
func timeToPicture(tb testing.TB, dotText, traceText string) int {
	a, err := OpenOffline(dotText, traceText)
	if err != nil {
		tb.Fatal(err)
	}
	first, err := a.SVG()
	if err != nil {
		tb.Fatal(err)
	}
	a.Recolor(WithColoring(ColorGradient))
	second, err := a.SVG()
	if err != nil {
		tb.Fatal(err)
	}
	return len(first) + len(second)
}

var pictureSink int

func BenchmarkTimeToPicture(b *testing.B) {
	dotText, traceText := mustPicturePair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pictureSink = timeToPicture(b, dotText, traceText)
	}
}

func BenchmarkRepaint(b *testing.B) {
	a, err := OpenOffline(mustPicturePair(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svg, err := a.SVG()
		if err != nil {
			b.Fatal(err)
		}
		pictureSink = len(svg)
	}
}

// TestPictureAllocCeilings holds the allocation counts where the retained
// document, the slab readers and index-keyed nodes put them. Before the
// retained document, the whole op on this pair made 488 738 allocations
// (render to text, parse the text back, re-render per paint), 89 453
// before the readers built slabs over their input, and 30 560 while
// layout, glyphs and coloring named nodes by ID strings (28 543 of them
// in core.NewSession). It now makes 2 051, about 1 900 of them the
// gradient's per-instruction colour strings, and a session 37; each
// ceiling is the count plus at most a quarter. Under -race, sync.Pool
// drops a random share of what is put back, so fmt allocates printers
// for those strings again and the op measures about 3 000; its ceiling
// there is that plus a quarter. A repaint makes a constant number.
func TestPictureAllocCeilings(t *testing.T) {
	dotText, traceText := mustPicturePair(t)
	ceiling := 2500.0
	if raceEnabled {
		ceiling = 3750
	}
	if got := testing.AllocsPerRun(3, func() { pictureSink = timeToPicture(t, dotText, traceText) }); got > ceiling {
		t.Errorf("open + paint + recolour + paint: %.0f allocs/op, ceiling %.0f", got, ceiling)
	}
	g, err := dot.Parse(dotText)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.LoadString(traceText)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(3, func() {
		if _, err := core.NewSession(g, st, core.SessionOptions{}); err != nil {
			t.Fatal(err)
		}
	}); got > 45 {
		t.Errorf("core.NewSession of %d nodes: %.0f allocs/op, ceiling 45", len(g.Nodes), got)
	}
	a, err := OpenOffline(dotText, traceText)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SVG(); err != nil { // the first paint renders the retained document
		t.Fatal(err)
	}
	repaint := testing.AllocsPerRun(10, func() {
		svg, err := a.SVG()
		if err != nil {
			t.Fatal(err)
		}
		pictureSink = len(svg)
	})
	if repaint > 4 {
		t.Errorf("repaint of %d nodes: %.0f allocs/op, want O(1) (at most 4)", a.Nodes(), repaint)
	}
}

// TestPictureReaderAllocs holds the plan's picture formats to a constant
// number of allocations, whatever the plan's size: each reader builds its
// slabs over the input text (39 303 allocations for dot.Parse and 16 047
// for trace.LoadString on this pair before), and the dot writer builds
// them from the integer plan (about 26 000 on Q6 at 64 partitions
// before).
func TestPictureReaderAllocs(t *testing.T) {
	dotText, traceText := mustPicturePair(t)
	if got := testing.AllocsPerRun(3, func() {
		if _, err := dot.Parse(dotText); err != nil {
			t.Fatal(err)
		}
	}); got > 64 {
		t.Errorf("dot.Parse: %.0f allocs/op, ceiling 64", got)
	}
	if got := testing.AllocsPerRun(3, func() {
		if _, err := trace.LoadString(traceText); err != nil {
			t.Fatal(err)
		}
	}); got > 64 {
		t.Errorf("trace.LoadString: %.0f allocs/op, ceiling 64", got)
	}
	plan, _, _ := formatsPlan(t)
	if got := testing.AllocsPerRun(3, func() { pictureSink = len(dot.Export(plan).Marshal()) }); got >= 100 {
		t.Errorf("dot.Export(plan).Marshal(): %.0f allocs/op, want under 100", got)
	}
}
