package runner

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"stethoscope/internal/adaptive"
	"stethoscope/internal/engine"
	"stethoscope/internal/mal"
	"stethoscope/internal/profiler"
	"stethoscope/internal/sharedwork"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
	"stethoscope/internal/tracestore"
)

const query = "select l_tax from lineitem where l_partkey=1"

func newRunner(t *testing.T) *Runner {
	t.Helper()
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.001, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	return New(cat, nil)
}

// TestPrepareNormalizesOnce: out-of-range settings — including -1,
// which used to collide with the Auto sentinel — clamp to 1 before any
// key is built, Auto survives, and only morsel mode gets a morsel size.
func TestPrepareNormalizesOnce(t *testing.T) {
	r := newRunner(t)
	base, err := r.Prepare(query, Settings{Partitions: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Settings{
		{Partitions: 0, Workers: 0},
		{Partitions: -1, Workers: -1},
		{Partitions: -7, Workers: -7},
	} {
		p, err := r.Prepare(query, s)
		if err != nil {
			t.Fatal(err)
		}
		if p.key != base.key || p.Partitions != 1 || p.Workers != 1 || p.MorselRows != 0 || p.AutoTuned {
			t.Errorf("Prepare(%+v) = key %+v partitions %d workers %d morsel %d auto %t, want the 1/1 static plan",
				s, p.key, p.Partitions, p.Workers, p.MorselRows, p.AutoTuned)
		}
	}
	if st := r.Stats().Cache; st.Len != 1 {
		t.Errorf("plan cache holds %d entries, want 1 (out-of-range settings aliased a key)", st.Len)
	}
	auto, err := r.Prepare(query, Settings{Partitions: adaptive.Auto, Workers: adaptive.Auto, Morsel: true})
	if err != nil {
		t.Fatal(err)
	}
	if !auto.AutoTuned || auto.key.Partitions != adaptive.Auto || !auto.key.Morsel || auto.MorselRows < adaptive.MinRowsPerPartition {
		t.Errorf("Prepare(auto, morsel) = %+v key %+v, want Auto kept in the key and an auto-sized morsel", auto, auto.key)
	}
}

// TestObservedRunBypassesGate: a run with private sinks executes even
// while an identical statement is in flight, and feeds its sinks the
// trace; an unobserved run of the same statement attaches to the
// in-flight one instead.
func TestObservedRunBypassesGate(t *testing.T) {
	r := newRunner(t)
	ctx := context.Background()
	p, err := r.Prepare(query, Settings{Partitions: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, via, err := r.Run(ctx, p, RunOptions{})
	if err != nil || via != "" {
		t.Fatalf("first run: via %q err %v", via, err)
	}
	// Plant a leader under the statement's key and hold it open.
	gate := make(chan struct{})
	go r.Flight.Do(ctx, p.key, func() (*sharedwork.Outcome, error) {
		<-gate
		return first, nil
	})
	for r.Flight.InFlight() != 1 {
		time.Sleep(time.Millisecond)
	}
	sink := profiler.NewOwnedSliceSink(0)
	out, via, err := r.Run(ctx, p, RunOptions{Sinks: []profiler.Sink{sink}})
	if err != nil || via != "" {
		t.Fatalf("observed run: via %q err %v", via, err)
	}
	if seen := len(sink.Take()); seen == 0 || seen != len(out.Events) {
		t.Errorf("private sink saw %d events, run produced %d", seen, len(out.Events))
	}
	type answer struct {
		out *sharedwork.Outcome
		via string
	}
	done := make(chan answer, 1)
	go func() {
		out, via, _ := r.Run(ctx, p, RunOptions{})
		done <- answer{out, via}
	}()
	for r.Flight.Attached() != 1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if a := <-done; a.via != "attached" || a.out != first {
		t.Fatalf("unobserved repeat: via %q, shared outcome %t; want it attached to the in-flight run", a.via, a.out == first)
	}
	st := r.Stats()
	if st.Execs != 3 || st.SharedLed != 2 || st.Events != int64(2*len(out.Events)) {
		t.Errorf("Stats = %+v, want 3 execs, 2 led, 2 executions' events", st)
	}
}

// TestFailedRunIsRecorded: a run whose kernel fails still lands in the
// history as one complete run carrying the error and every event it
// emitted before failing, and the caller sees the kernel's error, not a
// history one.
func TestFailedRunIsRecorded(t *testing.T) {
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.001, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	store, err := tracestore.Open(tracestore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r := New(cat, store)
	boom := errors.New("boom")
	r.Engine.Replace("algebra", "thetaselect", func(*engine.Context, *mal.Instr) error { return boom })
	p, err := r.Prepare(query, Settings{Partitions: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A sequential run executes in plan order and stops at the first
	// thetaselect, which emits its start and done events before failing.
	failAt := -1
	for i, in := range p.Plan.Instrs {
		if in.Name() == "algebra.thetaselect" {
			failAt = i
			break
		}
	}
	if failAt < 0 {
		t.Fatalf("plan has no algebra.thetaselect:\n%s", p.Plan)
	}
	_, _, err = r.Run(context.Background(), p, RunOptions{})
	if !errors.Is(err, boom) || strings.HasPrefix(err.Error(), "history: ") {
		t.Fatalf("Run error = %v, want the kernel's", err)
	}
	runs := store.Runs()
	if len(runs) != 1 {
		t.Fatalf("history holds %d runs, want 1: %+v", len(runs), runs)
	}
	got := runs[0]
	if got.OK() || got.Err != err.Error() {
		t.Errorf("recorded run = %+v, want Err %q", got, err)
	}
	if want := 2 * (failAt + 1); got.Events != want {
		t.Errorf("recorded run holds %d events, want the %d emitted before the failure", got.Events, want)
	}
}

// TestRunKeyDerivesFromCompileKey: Prepare never lists the key fields
// itself — a statement runs under the key it was compiled under, under
// every way a setting can be resolved, and only morsel compilations get
// a morsel size.
func TestRunKeyDerivesFromCompileKey(t *testing.T) {
	r := newRunner(t)
	for name, s := range map[string]Settings{
		"static":          {Partitions: 4, Workers: 2},
		"morsel":          {Partitions: 1, Workers: 2, Morsel: true},
		"auto-partitions": {Partitions: adaptive.Auto, Workers: adaptive.Auto},
	} {
		p, err := r.Prepare(query, s)
		if err != nil {
			t.Fatal(err)
		}
		c, err := r.Planner.Compile(query, s.Partitions, s.Morsel)
		if err != nil {
			t.Fatal(err)
		}
		if s.Morsel == (p.MorselRows == 0) {
			t.Errorf("%s: resolved morsel rows %d", name, p.MorselRows)
		}
		if p.key != c.Key {
			t.Errorf("%s: run key %+v, want the compile key %+v", name, p.key, c.Key)
		}
	}
}

// TestPartitionsCeiling: explicit counts up to MaxPartitions pass
// (normalized), Auto passes, anything larger is refused with an error
// naming the limit — by Prepare too, before the plan cache is consulted.
func TestPartitionsCeiling(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{0, 1}, {-1, 1}, {1, 1}, {64, 64}, {MaxPartitions, MaxPartitions}, {adaptive.Auto, adaptive.Auto},
	} {
		if got, err := Partitions(c.in); err != nil || got != c.want {
			t.Errorf("Partitions(%d) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	r := newRunner(t)
	for _, n := range []int{MaxPartitions + 1, 100_000_000} {
		if _, err := Partitions(n); err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxPartitions)) {
			t.Errorf("Partitions(%d) error = %v, want one naming the limit", n, err)
		}
		if _, err := r.Prepare(query, Settings{Partitions: n, Workers: 1}); err == nil {
			t.Errorf("Prepare accepted partitions=%d", n)
		}
	}
	if st := r.Stats().Cache; st.Misses+st.Hits != 0 {
		t.Errorf("a refused statement reached the plan cache: %+v", st)
	}
}
