package ascii

import (
	"strings"
	"testing"

	"stethoscope/internal/core"
	"stethoscope/internal/dot"
	"stethoscope/internal/layout"
)

func sampleLayout(t testing.TB) (*dot.Graph, *layout.Layout) {
	t.Helper()
	g, err := dot.Parse("digraph sample { n0 [label=bind]; n1 [label=select]; n2 [label=bind2]; n0 -> n1; n2 -> n1; }")
	if err != nil {
		t.Fatal(err)
	}
	lay, err := layout.Compute(g, layout.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g, lay
}

func TestRenderGraphPlain(t *testing.T) {
	g, lay := sampleLayout(t)
	out := RenderGraph(g, lay, core.Coloring{}.Fill(g), DefaultOptions())
	for _, want := range []string{"[n0 ]", "[n1 ]", "[n2 ]", "3 nodes, 2 edges"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Two ranks: n0 and n2 on rank 0, n1 on rank 1.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.HasPrefix(lines[0], "r00") || !strings.HasPrefix(lines[1], "r01") {
		t.Errorf("rank lines:\n%s", out)
	}
	if !strings.Contains(lines[0], "n0") || !strings.Contains(lines[0], "n2") {
		t.Errorf("rank 0 = %q", lines[0])
	}
}

func TestRenderGraphStateMarkers(t *testing.T) {
	g, lay := sampleLayout(t)
	fill := core.Coloring{0: core.ColorGreen, 1: core.ColorRed}.Fill(g)
	out := RenderGraph(g, lay, fill, DefaultOptions())
	if !strings.Contains(out, "[n0+]") {
		t.Errorf("done marker missing:\n%s", out)
	}
	if !strings.Contains(out, "[n1*]") {
		t.Errorf("running marker missing:\n%s", out)
	}
}

func TestRenderGraphANSI(t *testing.T) {
	g, lay := sampleLayout(t)
	fill := core.Coloring{1: core.ColorRed}.Fill(g)
	out := RenderGraph(g, lay, fill, Options{Width: 100, ANSI: true})
	if !strings.Contains(out, "\x1b[41") || !strings.Contains(out, "\x1b[0m") {
		t.Errorf("no ANSI escapes:\n%q", out)
	}
}

func TestRenderGraphEmpty(t *testing.T) {
	g, err := dot.Parse("digraph empty {}")
	if err != nil {
		t.Fatal(err)
	}
	lay, _ := layout.Compute(g, layout.DefaultOptions())
	if out := RenderGraph(g, lay, core.Coloring{}.Fill(g), DefaultOptions()); !strings.Contains(out, "empty") {
		t.Errorf("empty render = %q", out)
	}
}

func TestRenderGraphNarrowWidthClamped(t *testing.T) {
	g, lay := sampleLayout(t)
	out := RenderGraph(g, lay, core.Coloring{}.Fill(g), Options{Width: 1})
	if out == "" {
		t.Fatal("no output at clamped width")
	}
}

func TestRenderUtilization(t *testing.T) {
	u := core.Utilization{
		BusyUs:      map[int]int64{0: 1000, 1: 500, 3: 0},
		SpanUs:      1100,
		Parallelism: 1.36,
		Threads:     3,
	}
	out := RenderUtilization(u, DefaultOptions())
	if !strings.Contains(out, "thread  0") || !strings.Contains(out, "thread  3") {
		t.Errorf("threads missing:\n%s", out)
	}
	// Busiest thread has the longest bar.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	bar0 := strings.Count(lines[1], "#")
	bar1 := strings.Count(lines[2], "#")
	if bar0 <= bar1 {
		t.Errorf("bar lengths %d <= %d:\n%s", bar0, bar1, out)
	}
	// Empty utilization renders header only.
	if out := RenderUtilization(core.Utilization{}, DefaultOptions()); !strings.Contains(out, "0 threads") {
		t.Errorf("empty render = %q", out)
	}
}

func TestRenderBirdsEye(t *testing.T) {
	clusters := []core.Cluster{
		{FromSeq: 0, ToSeq: 9, Events: 10, BusyUs: 100, Module: "sql"},
		{FromSeq: 10, ToSeq: 19, Events: 10, BusyUs: 900, Module: "algebra"},
	}
	out := RenderBirdsEye(clusters, DefaultOptions())
	if !strings.Contains(out, "sql") || !strings.Contains(out, "algebra") {
		t.Errorf("modules missing:\n%s", out)
	}
	if !strings.Contains(out, "90.0%") {
		t.Errorf("percentages missing:\n%s", out)
	}
	if out := RenderBirdsEye(nil, DefaultOptions()); !strings.Contains(out, "empty") {
		t.Errorf("empty birds-eye = %q", out)
	}
}

func TestRenderCostly(t *testing.T) {
	items := []core.CostlyInstr{
		{PC: 5, DurUs: 9000, Stmt: "X_5 := algebra.join(X_1, X_2);"},
		{PC: 2, DurUs: 100, Stmt: strings.Repeat("long ", 100)},
	}
	out := RenderCostly(items, DefaultOptions())
	if !strings.Contains(out, "pc=5") || !strings.Contains(out, "9000us") {
		t.Errorf("costly table:\n%s", out)
	}
	// Long statements truncate.
	for _, line := range strings.Split(out, "\n") {
		if len(line) > 130 {
			t.Errorf("line too long: %d chars", len(line))
		}
	}
	if out := RenderCostly(nil, DefaultOptions()); !strings.Contains(out, "no completed") {
		t.Errorf("empty costly = %q", out)
	}
}

func TestRenderGantt(t *testing.T) {
	timeline := map[int][]core.Segment{
		0: {{Thread: 0, PC: 0, FromUs: 0, ToUs: 500}, {Thread: 0, PC: 2, FromUs: 600, ToUs: 1000}},
		1: {{Thread: 1, PC: 1, FromUs: 100, ToUs: 900}},
	}
	out := RenderGantt(timeline, DefaultOptions())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "thread  0") || !strings.Contains(lines[0], "#") {
		t.Errorf("thread 0 row = %q", lines[0])
	}
	// Thread 0 has a gap between its segments.
	if !strings.Contains(lines[0], ".") {
		t.Errorf("no idle gap in row: %q", lines[0])
	}
	if out := RenderGantt(nil, DefaultOptions()); !strings.Contains(out, "no segments") {
		t.Errorf("empty gantt = %q", out)
	}
}

func TestRenderMemoryTimeline(t *testing.T) {
	pts := []core.MemPoint{{ClkUs: 100, RSSKB: 10}, {ClkUs: 200, RSSKB: 100}}
	out := RenderMemoryTimeline(pts, DefaultOptions())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if strings.Count(lines[1], "#") <= strings.Count(lines[0], "#") {
		t.Error("larger rss should have longer bar")
	}
	if out := RenderMemoryTimeline(nil, DefaultOptions()); !strings.Contains(out, "no memory") {
		t.Errorf("empty timeline = %q", out)
	}
}
