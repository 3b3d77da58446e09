package stethoscope

import "testing"

// The numbers bench/ cannot see: allocations and time of the client half
// on the largest pair the benchmark walks (Q3 at 64 partitions, ~2300
// nodes), as go-test benchmarks with allocation ceilings beside them.

func mustPicturePair(tb testing.TB) (dotText, traceText string) {
	tb.Helper()
	db, err := Open(WithScaleFactor(0.01), WithWorkers(1))
	if err != nil {
		tb.Fatal(err)
	}
	defer db.Close()
	res := execBundled(tb, db, "Q3", 64)
	return res.Dot(), res.TraceText()
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

// TestPictureAllocCeilings holds the two allocation counts where the
// retained document put them. Before it, the whole op on this pair made
// 488 738 allocations (render to text, parse the text back, re-render
// per paint) and a repaint several per node; the ceilings are a quarter
// of the former and a constant for the latter.
func TestPictureAllocCeilings(t *testing.T) {
	dotText, traceText := mustPicturePair(t)
	if got := testing.AllocsPerRun(3, func() { pictureSink = timeToPicture(t, dotText, traceText) }); got > 488738/4 {
		t.Errorf("open + paint + recolour + paint: %.0f allocs/op, ceiling %d", got, 488738/4)
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
