// Facade tests: the public API exercised exactly as an external consumer
// would use it (hence the _test package), on the paper's Figure 1 query.
package stethoscope_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"stethoscope"
)

// figure1Query is the paper's own example (Figure 1).
const figure1Query = "select l_tax from lineitem where l_partkey=1"

func openTestDB(t *testing.T) *stethoscope.DB {
	t.Helper()
	db, err := stethoscope.Open(stethoscope.WithScaleFactor(0.005), stethoscope.WithSeed(42))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

// TestGoldenFigure1 runs Open → Exec → Analyze end to end and pins the
// observable shape of the paper's Figure 1 pipeline.
func TestGoldenFigure1(t *testing.T) {
	db := openTestDB(t)
	res, err := db.Exec(context.Background(), figure1Query)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}

	// Plan shape: the Figure 1 operators must appear in the optimized MAL.
	listing := res.PlanString()
	for _, want := range []string{"sql.bind", "algebra.thetaselect", "algebra.leftjoin", "sql.exportResult"} {
		if !strings.Contains(listing, want) {
			t.Errorf("plan missing %s:\n%s", want, listing)
		}
	}

	// The generator is seeded: the result is reproducible.
	if res.RowCount() != 32 {
		t.Errorf("rows = %d, want 32 (SF=0.005, seed=42)", res.RowCount())
	}
	if got, want := res.Columns(), []string{"l_tax"}; !reflect.DeepEqual(got, want) {
		t.Errorf("columns = %v, want %v", got, want)
	}

	// Trace: one start + one done per executed instruction.
	if res.TraceLen() == 0 {
		t.Fatal("empty trace")
	}
	if got, want := res.TraceLen(), 2*res.Stats.Instructions; got != want {
		t.Errorf("trace has %d events, want %d (2 per instruction)", got, want)
	}

	// Analysis: the trace maps completely onto the plan graph.
	a, err := stethoscope.Analyze(res)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !a.MappingComplete() {
		t.Errorf("trace/dot mapping incomplete: %s", a.MappingSummary())
	}
	if a.Nodes() != res.Stats.Instructions {
		t.Errorf("graph has %d nodes, want %d", a.Nodes(), res.Stats.Instructions)
	}
	if out := a.RenderGraph(stethoscope.DefaultRender()); !strings.Contains(out, "[n0 ]") {
		t.Errorf("graph render missing node n0:\n%s", out)
	}

	// Deterministic coloring: analyzing the same result twice yields the
	// same coloring, and threshold(0) flags exactly the executed pcs.
	b, err := stethoscope.Analyze(res)
	if err != nil {
		t.Fatalf("Analyze (second): %v", err)
	}
	if !reflect.DeepEqual(a.Coloring(), b.Coloring()) {
		t.Errorf("pair coloring not deterministic: %v vs %v", a.Coloring(), b.Coloring())
	}
	a.Recolor(stethoscope.WithColoring(stethoscope.ColorThreshold), stethoscope.WithThreshold(0))
	if got := len(a.Coloring()); got != res.Stats.Instructions {
		t.Errorf("threshold(0) flags %d pcs, want %d", got, res.Stats.Instructions)
	}
	for pc, c := range a.Coloring() {
		if c != stethoscope.ColorGreen {
			t.Errorf("threshold(0) pc=%d colored %q, want green", pc, c)
		}
	}

	// Replay drives the glyph space to completion.
	a.Replay().FastForward(res.TraceLen())
	if out := a.RenderReplay(stethoscope.DefaultRender()); !strings.Contains(out, "+") {
		t.Errorf("replayed render shows no completed nodes:\n%s", out)
	}
}

// TestOfflineRoundTrip writes the offline artifacts a Result exports and
// reopens them through the facade's offline path.
func TestOfflineRoundTrip(t *testing.T) {
	db := openTestDB(t)
	res, err := db.Exec(context.Background(), figure1Query,
		stethoscope.ExecPartitions(4), stethoscope.ExecWorkers(2))
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	a, err := stethoscope.OpenOffline(res.Dot(), res.TraceText())
	if err != nil {
		t.Fatalf("OpenOffline: %v", err)
	}
	if !a.MappingComplete() {
		t.Errorf("offline mapping incomplete: %s", a.MappingSummary())
	}
	if a.TraceLen() != res.TraceLen() {
		t.Errorf("offline trace has %d events, want %d", a.TraceLen(), res.TraceLen())
	}
}

// TestExecContextCancel verifies that Exec honors context cancellation
// in both execution modes.
func TestExecContextCancel(t *testing.T) {
	db := openTestDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := db.Exec(ctx, figure1Query,
			stethoscope.ExecPartitions(8), stethoscope.ExecWorkers(workers))
		if err == nil {
			t.Fatalf("workers=%d: Exec succeeded under canceled context", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: error %v does not wrap context.Canceled", workers, err)
		}
	}
	// A live context still executes.
	if _, err := db.Exec(context.Background(), figure1Query); err != nil {
		t.Fatalf("Exec after cancel test: %v", err)
	}
}

// TestMonitorCancelThenClose pins the documented Attach usage: cancel
// the context, then Close the monitor (as every consumer's deferred
// Close does). This used to panic with a double channel close.
func TestMonitorCancelThenClose(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	mon, err := stethoscope.Attach(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	cancel()
	time.Sleep(20 * time.Millisecond) // let the context watcher close the listener
	if err := mon.Close(); err != nil {
		t.Fatalf("Close after cancel: %v", err)
	}
	if err := mon.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestZeroValueTraceReports holds that a zero Result, Run or Analysis
// reads as the empty trace: every trace report answers, none panics.
func TestZeroValueTraceReports(t *testing.T) {
	type reports interface {
		Events() []stethoscope.Event
		TraceLen() int
		Costly(int) []stethoscope.CostlyInstr
		Utilization() stethoscope.Utilization
		ModuleBreakdown() []stethoscope.ModuleStat
		ThreadTimeline() map[int][]stethoscope.Segment
		BirdsEye(int) []stethoscope.Cluster
		MemoryTimeline(int) []stethoscope.MemPoint
		MicroReport() string
		Tooltip(int) string
		TraceText() string
	}
	for name, v := range map[string]reports{
		"Result":   &stethoscope.Result{},
		"Run":      &stethoscope.Run{},
		"Analysis": &stethoscope.Analysis{},
	} {
		if n, ev, text := v.TraceLen(), v.Events(), v.TraceText(); n != 0 || len(ev) != 0 || text != "" {
			t.Errorf("%s: TraceLen %d, %d events, trace text %q; want the empty trace", name, n, len(ev), text)
		}
		if c := v.Costly(3); len(c) != 0 {
			t.Errorf("%s: Costly(3) = %v, want none", name, c)
		}
		v.Utilization()
		v.ModuleBreakdown()
		v.ThreadTimeline()
		v.BirdsEye(4)
		v.MemoryTimeline(4)
		v.MicroReport()
		v.Tooltip(0)
	}
}
