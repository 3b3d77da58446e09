package stethoscope

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"stethoscope/internal/profiler"
	"stethoscope/internal/tracestore"
)

// goldenStmts are the statements of the two synthetic plans the
// history golden records: plan A is run twice, plan B once. They cover
// assignments, bare calls and a call-less copy (no module, no
// operator).
var goldenStmts = map[string][]string{
	"select sum(l_tax) from lineitem where l_partkey = 1": {
		"X_1 := sql.mvc();",
		`X_2 := sql.bind(X_1, "sys", "lineitem", "l_tax", 0);`,
		`X_3 := sql.bind(X_1, "sys", "lineitem", "l_partkey", 0);`,
		`X_4 := algebra.thetaselect(X_3, 1, "==");`,
		"X_5 := algebra.projection(X_4, X_2);",
		"X_6 := aggr.sum(X_5);",
		"X_7 := X_6;",
		"sql.resultSet(X_7);",
	},
	"select count(*) from orders": {
		"X_1 := sql.mvc();",
		`X_2 := sql.tid(X_1, "sys", "orders");`,
		"X_3 := aggr.count(X_2);",
		"sql.resultSet(X_3);",
	},
}

// goldenRun is one synthetic recorded run: its SQL, per-pc durations
// (start/done pairs, one per pc), and completion statistics.
type goldenRun struct {
	sql       string
	durs      []int64
	threads   int
	elapsedUs int64
	rows      int
}

var goldenRuns = []goldenRun{
	{sql: "select sum(l_tax) from lineitem where l_partkey = 1", durs: []int64{5, 40, 40, 300, 120, 60, 1, 9}, threads: 2, elapsedUs: 1000, rows: 1},
	{sql: "select count(*) from orders", durs: []int64{4, 70, 70, 6}, threads: 1, elapsedUs: 500, rows: 1},
	{sql: "select sum(l_tax) from lineitem where l_partkey = 1", durs: []int64{5, 60, 20, 410, 100, 80, 1, 9}, threads: 2, elapsedUs: 1150, rows: 1},
}

// goldenEvents renders a run's trace: every pc starts and finishes once,
// on thread pc%threads, with reads/writes derived from the duration.
func goldenEvents(r goldenRun) []profiler.Event {
	stmts := goldenStmts[r.sql]
	var evs []profiler.Event
	var seq, clk int64
	for pc, dur := range r.durs {
		th := pc % r.threads
		seq++
		evs = append(evs, profiler.Event{Seq: seq, State: profiler.StateStart, PC: pc, Thread: th, ClkUs: clk, Stmt: stmts[pc]})
		clk += dur
		seq++
		evs = append(evs, profiler.Event{Seq: seq, State: profiler.StateDone, PC: pc, Thread: th, ClkUs: clk, DurUs: dur,
			RSSKB: 64 + int64(pc), Reads: dur * 3, Writes: dur / 2, Stmt: stmts[pc]})
		if th == 0 {
			clk -= dur / 2 // overlap the next instruction on the other thread
		}
	}
	return evs
}

// seedGoldenHistory records the synthetic runs into a store at dir,
// with fixed start times, and closes it.
func seedGoldenHistory(t *testing.T, dir string) {
	t.Helper()
	st, err := tracestore.Open(tracestore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	for i, r := range goldenRuns {
		evs := goldenEvents(r)
		if _, err := st.Record(tracestore.RunMeta{
			SQL:          r.sql,
			Dot:          "digraph plan {\n}\n",
			Start:        base.Add(time.Duration(i) * time.Minute),
			Partitions:   1,
			Workers:      r.threads,
			Instructions: len(r.durs),
		}, evs, tracestore.RunStats{ElapsedUs: r.elapsedUs, Rows: r.rows}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHistoryGolden pins every analysis of stored runs — the server's
// HISTORY LIST/TOP/DIFF replies, the facade's Compare and rollups, and
// a fetched run's breakdown, costly list and utilization — over a
// deterministic store, byte for byte.
func TestHistoryGolden(t *testing.T) {
	dir := t.TempDir()
	seedGoldenHistory(t, dir)
	db, err := Open(WithScaleFactor(0.001), WithSeed(42), WithHistory(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := db.Serve(ctx, "golden", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	var b strings.Builder
	for _, cmd := range []string{"HISTORY LIST", "HISTORY LIST 2", "HISTORY TOP", "HISTORY TOP 1", "HISTORY DIFF 1 3", "HISTORY DIFF 3 1"} {
		status, payload, err := rc.Command(cmd)
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		fmt.Fprintf(&b, "> %s\n%s\n", cmd, status)
		for _, l := range payload {
			fmt.Fprintln(&b, l)
		}
	}

	h := db.History()
	fmt.Fprint(&b, "Queries(0):")
	for _, r := range h.Queries(0) {
		fmt.Fprintf(&b, " %d", r.ID)
	}
	fmt.Fprintln(&b)
	for _, pair := range [][2]uint64{{1, 3}, {3, 1}} {
		d, err := h.Compare(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "Compare(%d, %d): a=%d b=%d sql=%q a_us=%d b_us=%d delta_us=%d regression=%t\n",
			pair[0], pair[1], d.A.ID, d.B.ID, d.A.SQL, d.A.ElapsedUs, d.B.ElapsedUs, d.ElapsedDeltaUs, d.Regression)
		for _, in := range d.Instrs {
			fmt.Fprintf(&b, "  pc=%d a_us=%d b_us=%d delta_us=%d stmt=%q\n", in.PC, in.AUs, in.BUs, in.DeltaUs, in.Stmt)
		}
		for _, m := range d.Modules {
			fmt.Fprintf(&b, "  module=%q a_us=%d b_us=%d delta_us=%d\n", m.Module, m.AUs, m.BUs, m.DeltaUs)
		}
	}
	for _, ids := range [][]uint64{nil, {1}, {1, 2}} {
		rows, err := h.ModuleRollup(ids...)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "ModuleRollup(%v):\n", ids)
		for _, r := range rows {
			writeGoldenRow(&b, r.Module, r.Calls, r.BusyUs, r.Reads, r.Writes, r.Share)
		}
	}
	ops, err := h.OperatorRollup()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&b, "OperatorRollup():")
	for _, r := range ops {
		writeGoldenRow(&b, r.Module, r.Calls, r.BusyUs, r.Reads, r.Writes, r.Share)
	}
	for id := uint64(1); id <= uint64(len(goldenRuns)); id++ {
		run, err := h.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		one, err := h.ModuleRollup(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(one, run.ModuleBreakdown()) {
			t.Errorf("ModuleRollup(%d) = %+v, Get(%d).ModuleBreakdown() = %+v", id, one, id, run.ModuleBreakdown())
		}
		fmt.Fprintf(&b, "Get(%d).ModuleBreakdown():\n", id)
		for _, m := range run.ModuleBreakdown() {
			writeGoldenRow(&b, m.Module, m.Calls, m.BusyUs, m.Reads, m.Writes, m.Share)
		}
		fmt.Fprintf(&b, "Get(%d).Costly(10):\n", id)
		for _, c := range run.Costly(10) {
			fmt.Fprintf(&b, "  pc=%d dur_us=%d stmt=%q\n", c.PC, c.DurUs, c.Stmt)
		}
		fmt.Fprintf(&b, "Get(%d).Utilization(): %s", id, run.Utilization())
	}

	path := filepath.Join("testdata", "history.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("history analyses differ from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

func writeGoldenRow(b *strings.Builder, name string, calls int, busy, reads, writes int64, share float64) {
	fmt.Fprintf(b, "  %q calls=%d busy_us=%d reads=%d writes=%d share=%.6f\n", name, calls, busy, reads, writes, share)
}
