package engine

import (
	"strings"
	"testing"

	"stethoscope/internal/profiler"
)

func newDbg(t *testing.T) *Debugger {
	t.Helper()
	eng := New(testCat)
	plan := compileQ(t, "select l_tax from lineitem where l_partkey=1", 1)
	d, err := NewDebugger(eng, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDebuggerStepThrough(t *testing.T) {
	d := newDbg(t)
	steps := 0
	for !d.Done() {
		in, ok, err := d.Step()
		if err != nil {
			t.Fatalf("step %d: %v", steps, err)
		}
		if !ok || in == nil {
			t.Fatalf("step %d returned no instruction", steps)
		}
		if in.PC != steps {
			t.Fatalf("step %d executed pc=%d", steps, in.PC)
		}
		steps++
	}
	if steps == 0 {
		t.Fatal("no steps executed")
	}
	// Stepping past the end is a clean no-op.
	if _, ok, err := d.Step(); ok || err != nil {
		t.Errorf("step past end: ok=%v err=%v", ok, err)
	}
	res := d.Result()
	if res == nil || res.Rows() == 0 {
		t.Fatal("debugged run produced no result")
	}
}

func TestDebuggerBreakpoints(t *testing.T) {
	d := newDbg(t)
	if err := d.BreakAt(4); err != nil {
		t.Fatal(err)
	}
	stopped, err := d.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if stopped == nil || stopped.PC != 4 {
		t.Fatalf("stopped at %+v, want pc=4", stopped)
	}
	if d.PC() != 4 {
		t.Errorf("cursor at %d", d.PC())
	}
	// Continue again from the breakpoint runs to completion (only one
	// breakpoint).
	stopped, err = d.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if stopped != nil || !d.Done() {
		t.Fatalf("second continue stopped at %+v", stopped)
	}
	if err := d.BreakAt(999); err == nil {
		t.Error("out-of-range breakpoint accepted")
	}
}

func TestDebuggerModuleBreakpoints(t *testing.T) {
	d := newDbg(t)
	d.BreakModule("algebra")
	var stops []int
	for {
		stopped, err := d.Continue()
		if err != nil {
			t.Fatal(err)
		}
		if stopped == nil {
			break
		}
		stops = append(stops, stopped.PC)
	}
	// The plan has one thetaselect and one leftjoin; Continue executes
	// the instruction under the cursor first, so both algebra ops after
	// the start produce stops.
	if len(stops) < 1 {
		t.Fatalf("no module breakpoint hits")
	}
	for _, pc := range stops {
		if d.plan.Instrs[pc].Module() != "algebra" {
			t.Errorf("stopped at non-algebra pc=%d", pc)
		}
	}
	d.ClearBreakpoints()
}

func TestDebuggerInspect(t *testing.T) {
	d := newDbg(t)
	// Before execution, variables are unset.
	desc, err := d.Inspect(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "<unset>") {
		t.Errorf("pre-run inspect = %q", desc)
	}
	// Run the binds, then inspect a BAT variable.
	d.BreakModule("algebra")
	if _, err := d.Continue(); err != nil {
		t.Fatal(err)
	}
	found := false
	for id := range d.plan.Vars {
		desc, err := d.Inspect(id)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(desc, "BAT[int]") && strings.Contains(desc, "rows") {
			found = true
		}
	}
	if !found {
		t.Error("no bound BAT variable visible after binds")
	}
	if _, err := d.Inspect(-1); err == nil {
		t.Error("negative variable accepted")
	}
	if _, err := d.InspectByName("X_9999"); err == nil {
		t.Error("unknown name accepted")
	}
	if desc, err := d.InspectByName(d.plan.VarName(0)); err != nil || desc == "" {
		t.Errorf("InspectByName: %q, %v", desc, err)
	}
}

func TestDebuggerListing(t *testing.T) {
	d := newDbg(t)
	d.BreakAt(2)
	d.Step()
	listing := d.Listing()
	lines := strings.Split(strings.TrimSpace(listing), "\n")
	if len(lines) != len(d.plan.Instrs) {
		t.Fatalf("listing lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "=>") {
		t.Errorf("cursor not on line 1: %q", lines[1])
	}
	if !strings.Contains(lines[2], "*") {
		t.Errorf("breakpoint mark missing: %q", lines[2])
	}
}

func TestDebuggerEmitsProfilerEvents(t *testing.T) {
	eng := New(testCat)
	plan := compileQ(t, "select l_tax from lineitem where l_partkey=1", 1)
	sink := &profiler.SliceSink{}
	d, err := NewDebugger(eng, plan, profiler.New(sink))
	if err != nil {
		t.Fatal(err)
	}
	for !d.Done() {
		if _, _, err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sink.Events()); got != 2*len(plan.Instrs) {
		t.Errorf("debugger events = %d, want %d", got, 2*len(plan.Instrs))
	}
}

func TestDebuggerResultMatchesRun(t *testing.T) {
	eng := New(testCat)
	plan := compileQ(t, "select l_returnflag, count(*) from lineitem group by l_returnflag order by l_returnflag", 1)
	want, err := eng.Run(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDebugger(eng, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Continue(); err != nil {
		t.Fatal(err)
	}
	got := d.Result()
	if got.Rows() != want.Rows() {
		t.Fatalf("debug rows %d != run rows %d", got.Rows(), want.Rows())
	}
	for i := 0; i < got.Rows(); i++ {
		if got.Cols[0].StrAt(i) != want.Cols[0].StrAt(i) || got.Cols[1].IntAt(i) != want.Cols[1].IntAt(i) {
			t.Fatalf("row %d differs", i)
		}
	}
}
