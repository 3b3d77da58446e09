package core

import (
	"fmt"
	"testing"

	"stethoscope/internal/profiler"
	"stethoscope/internal/trace"
)

// runEvents builds a deterministic start/done event stream of n
// instruction pairs with the given per-instruction duration, spread
// over four threads.
func runEvents(pairs int, durUs int64) []profiler.Event {
	evs := make([]profiler.Event, 0, 2*pairs)
	clk := int64(0)
	for pc := 0; pc < pairs; pc++ {
		stmt := fmt.Sprintf("X_%d := algebra.thetaselect(X_1, %d);", pc, pc)
		evs = append(evs, profiler.Event{Seq: int64(2 * pc), State: profiler.StateStart, PC: pc, ClkUs: clk, Stmt: stmt})
		clk += durUs
		evs = append(evs, profiler.Event{
			Seq: int64(2*pc + 1), State: profiler.StateDone, PC: pc, Thread: pc % 4,
			ClkUs: clk, DurUs: durUs, RSSKB: 64, Reads: 100, Writes: 10, Stmt: stmt,
		})
	}
	return evs
}

// TestRollup: the busy-time rollup sums the done events of several runs
// per key — one row per module, or per module.function operator — and a
// single run's module rollup is its ModuleBreakdown.
func TestRollup(t *testing.T) {
	slow, fast := runEvents(10, 1000), runEvents(10, 10)

	mods := NewRollup(profiler.ModuleOf)
	mods.Add(slow)
	mods.Add(fast)
	rows := mods.Rows()
	if len(rows) != 1 || rows[0].Module != "algebra" || rows[0].Calls != 20 || rows[0].Share != 1 {
		t.Fatalf("module rollup = %+v", rows)
	}
	if rows[0].BusyUs != 10*1000+10*10 {
		t.Fatalf("module rollup busy = %d", rows[0].BusyUs)
	}

	ops := NewRollup(profiler.CallOf)
	ops.Add(slow)
	ops.Add(fast)
	if rows := ops.Rows(); len(rows) != 1 || rows[0].Module != "algebra.thetaselect" {
		t.Fatalf("operator rollup = %+v", rows)
	}

	one := NewRollup(profiler.ModuleOf)
	one.Add(slow)
	if got, want := one.Rows(), ModuleBreakdown(trace.FromEvents(slow)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("single-run rollup %+v != ModuleBreakdown %+v", got, want)
	}

	if u := Utilize(trace.FromEvents(slow)); u.Threads != 4 {
		t.Fatalf("Utilization threads = %d, want 4", u.Threads)
	}
}

// TestDiff: two runs of the same SQL diff per instruction and per module,
// a ≥10% slowdown is a regression only in the slower direction, and
// runs of different SQL refuse to diff.
func TestDiff(t *testing.T) {
	a := DiffRun{ID: 1, SQL: "select x", ElapsedUs: 10 * 100, OK: true}
	b := DiffRun{ID: 2, SQL: "select x", ElapsedUs: 10 * 250, OK: true} // 2.5x slower
	other := DiffRun{ID: 3, SQL: "select y", ElapsedUs: 10 * 100, OK: true}
	aEvs, bEvs := runEvents(10, 100), runEvents(10, 250)

	d, err := Diff(a, b, aEvs, bEvs)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Regression {
		t.Fatalf("2.5x slowdown not flagged: %+v", d)
	}
	if d.ElapsedDeltaUs != 10*250-10*100 {
		t.Fatalf("ElapsedDeltaUs = %d", d.ElapsedDeltaUs)
	}
	if len(d.Instrs) != 10 {
		t.Fatalf("instr deltas = %d, want 10", len(d.Instrs))
	}
	for i, in := range d.Instrs {
		if in.DeltaUs != 150 || in.PC != i {
			t.Fatalf("instr delta %d = %+v, want pc %d +150us", i, in, i)
		}
	}
	if len(d.Modules) != 1 || d.Modules[0].Module != "algebra" || d.Modules[0].DeltaUs != 1500 {
		t.Fatalf("module deltas = %+v", d.Modules)
	}
	if d2, err := Diff(b, a, bEvs, aEvs); err != nil || d2.Regression {
		t.Fatalf("reverse diff: %+v, %v", d2, err)
	}
	failed := b
	failed.OK = false
	if d3, err := Diff(a, failed, aEvs, bEvs); err != nil || d3.Regression {
		t.Fatalf("diff against a failed run: %+v, %v", d3, err)
	}
	if _, err := Diff(a, other, aEvs, aEvs); err == nil {
		t.Fatal("Diff across different SQL succeeded")
	}
}
