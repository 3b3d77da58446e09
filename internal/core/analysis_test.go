package core

import (
	"testing"

	"stethoscope/internal/profiler"
	"stethoscope/internal/trace"
)

func utilTrace(threads int, perThreadBusyUs int64) *trace.Store {
	var events []profiler.Event
	seq := int64(0)
	for th := 0; th < threads; th++ {
		stmt := "X_0 := algebra.select(X_1);"
		events = append(events,
			profiler.Event{Seq: seq, State: profiler.StateStart, PC: th, Thread: th, ClkUs: 0, Stmt: stmt},
			profiler.Event{Seq: seq + 1, State: profiler.StateDone, PC: th, Thread: th, ClkUs: perThreadBusyUs, DurUs: perThreadBusyUs, Stmt: stmt})
		seq += 2
	}
	return trace.FromEvents(events)
}

func TestUtilizeParallel(t *testing.T) {
	// 4 threads each busy 1000us over a 1000us span: parallelism 4.
	u := Utilize(utilTrace(4, 1000))
	if u.Threads != 4 {
		t.Errorf("threads = %d", u.Threads)
	}
	if u.SpanUs != 1000 {
		t.Errorf("span = %d", u.SpanUs)
	}
	if u.Parallelism < 3.9 || u.Parallelism > 4.1 {
		t.Errorf("parallelism = %g", u.Parallelism)
	}
	if u.BusyUs[2] != 1000 {
		t.Errorf("thread 2 busy = %d", u.BusyUs[2])
	}
}

func TestUtilizeSequential(t *testing.T) {
	// One thread executing back-to-back.
	events := []profiler.Event{
		{Seq: 0, State: profiler.StateStart, PC: 0, Thread: 0, ClkUs: 0},
		{Seq: 1, State: profiler.StateDone, PC: 0, Thread: 0, ClkUs: 500, DurUs: 500},
		{Seq: 2, State: profiler.StateStart, PC: 1, Thread: 0, ClkUs: 500},
		{Seq: 3, State: profiler.StateDone, PC: 1, Thread: 0, ClkUs: 1000, DurUs: 500},
	}
	u := Utilize(trace.FromEvents(events))
	if u.Threads != 1 {
		t.Errorf("threads = %d", u.Threads)
	}
	if u.Parallelism < 0.9 || u.Parallelism > 1.1 {
		t.Errorf("parallelism = %g", u.Parallelism)
	}
}

func TestE7SequentialAnomaly(t *testing.T) {
	seq := Utilize(utilTrace(1, 1000))
	par := Utilize(utilTrace(4, 1000))
	if !SequentialAnomaly(seq, 4) {
		t.Error("sequential run not flagged")
	}
	if SequentialAnomaly(par, 4) {
		t.Error("parallel run flagged")
	}
	if SequentialAnomaly(seq, 1) {
		t.Error("expected-sequential run flagged")
	}
}

func TestUtilizationString(t *testing.T) {
	s := Utilize(utilTrace(2, 100)).String()
	if s == "" || !contains(s, "threads=2") {
		t.Errorf("report = %q", s)
	}
}

func TestUtilizeEmpty(t *testing.T) {
	u := Utilize(trace.FromEvents(nil))
	if u.Threads != 0 || u.SpanUs != 0 || u.Parallelism != 0 {
		t.Errorf("empty utilization = %+v", u)
	}
}

func TestBirdsEyeClustering(t *testing.T) {
	var events []profiler.Event
	seq := int64(0)
	add := func(module string, n int, dur int64) {
		for i := 0; i < n; i++ {
			stmt := "X_1 := " + module + ".op(X_0);"
			events = append(events,
				profiler.Event{Seq: seq, State: profiler.StateStart, PC: int(seq / 2), Stmt: stmt},
				profiler.Event{Seq: seq + 1, State: profiler.StateDone, PC: int(seq / 2), DurUs: dur, Stmt: stmt})
			seq += 2
		}
	}
	add("sql", 10, 10)      // phase 1: binds
	add("algebra", 10, 100) // phase 2: selections
	add("aggr", 10, 50)     // phase 3: aggregation

	clusters := BirdsEye(trace.FromEvents(events), 3)
	if len(clusters) != 3 {
		t.Fatalf("clusters = %d", len(clusters))
	}
	want := []string{"sql", "algebra", "aggr"}
	for i, c := range clusters {
		if c.Module != want[i] {
			t.Errorf("cluster %d module = %q, want %q", i, c.Module, want[i])
		}
		if c.Events != 20 {
			t.Errorf("cluster %d events = %d", i, c.Events)
		}
	}
	// Monotone seq ranges.
	for i := 1; i < len(clusters); i++ {
		if clusters[i].FromSeq <= clusters[i-1].ToSeq-1 && clusters[i].FromSeq < clusters[i-1].FromSeq {
			t.Error("cluster ranges overlap")
		}
	}
}

func TestBirdsEyeDegenerate(t *testing.T) {
	if c := BirdsEye(trace.FromEvents(nil), 5); c != nil {
		t.Errorf("empty trace clusters = %v", c)
	}
	st := trace.FromEvents([]profiler.Event{{Seq: 0, State: profiler.StateDone, DurUs: 5, Stmt: "a.b();"}})
	if c := BirdsEye(st, 10); len(c) != 1 {
		t.Errorf("one-event clustering = %v", c)
	}
	if c := BirdsEye(st, 0); c != nil {
		t.Errorf("zero buckets = %v", c)
	}
}

func TestTopCostly(t *testing.T) {
	events := []profiler.Event{
		{Seq: 0, State: profiler.StateDone, PC: 1, DurUs: 100, Stmt: "fast"},
		{Seq: 1, State: profiler.StateDone, PC: 2, DurUs: 9000, Stmt: "slow"},
		{Seq: 2, State: profiler.StateDone, PC: 3, DurUs: 500, Stmt: "mid"},
		{Seq: 3, State: profiler.StateStart, PC: 4, Stmt: "running"},
	}
	top := TopCostly(trace.FromEvents(events), 2)
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	if top[0].PC != 2 || top[1].PC != 3 {
		t.Errorf("order = %v", top)
	}
	all := TopCostly(trace.FromEvents(events), 0)
	if len(all) != 3 {
		t.Errorf("unlimited top = %d", len(all))
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}
