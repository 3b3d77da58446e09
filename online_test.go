package stethoscope

import (
	"context"
	"reflect"
	"testing"
	"time"

	"stethoscope/internal/core"
	"stethoscope/internal/netproto"
	"stethoscope/internal/profiler"
)

// waitSource polls the monitor until some source has streamed exactly
// want events and returns it.
func waitSource(t *testing.T, mon *Monitor, want int) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, src := range mon.Sources() {
			if _, n, _ := mon.SourceCounts(src); n == want {
				return src
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no source streamed %d events", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMonitorAnalyzesNewestPlan: a session that TRACEs two statements
// with different plans streams two dot files and two traces to one
// source. The source's log keeps both — it is the redirected trace
// file — but Analyze maps only the trace that followed the newest dot
// onto it, and the live coloring samples that trace alone.
func TestMonitorAnalyzesNewestPlan(t *testing.T) {
	ctx := context.Background()
	db, err := Open(WithScaleFactor(0.001))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	remote := serveTest(t, db)
	if err := remote.Configure(2, 2); err != nil {
		t.Fatal(err)
	}
	mon, err := Attach(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if err := remote.TraceTo(mon.Addr()); err != nil {
		t.Fatal(err)
	}
	first := "select l_tax from lineitem where l_partkey=1"
	second := "select l_returnflag, count(*) from lineitem group by l_returnflag"
	instrs := func(q string) int {
		res, err := db.Exec(ctx, q, ExecPartitions(2), ExecWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		return res.TraceLen() / 2
	}
	n1, n2 := instrs(first), instrs(second)
	if n1 == n2 {
		t.Fatalf("both plans have %d instructions; the test needs two shapes", n1)
	}
	for _, q := range []string{first, second} {
		if _, err := remote.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	src := waitSource(t, mon, 2*(n1+n2))

	a, err := mon.Analyze(src)
	if err != nil {
		t.Fatal(err)
	}
	if !a.MappingComplete() {
		t.Errorf("the newest plan's trace does not map onto it: %s", a.MappingSummary())
	}
	if got := a.TraceLen(); got != 2*n2 {
		t.Errorf("analysed trace holds %d events, want the second plan's %d", got, 2*n2)
	}
	log := mon.Events(src)
	if len(log) != 2*(n1+n2) {
		t.Fatalf("log holds %d events, want both traces' %d", len(log), 2*(n1+n2))
	}
	if !reflect.DeepEqual(log[2*n1:], a.Events()) {
		t.Error("the analysed trace is not the log's tail after the second dot")
	}
	if live, want := mon.LiveColoring(src), core.PairElision(a.Events()); !reflect.DeepEqual(live, want) {
		t.Errorf("live coloring %v, want pair elision over the analysed trace %v", live, want)
	}
}

// TestMonitorCompleteAllocatesNothing: WaitComplete polls complete
// every 5 ms, so testing a source for a plan and an event must not copy
// the source's log.
func TestMonitorCompleteAllocatesNothing(t *testing.T) {
	const total, chunk = 10000, 500
	mon, err := Attach(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	s, err := netproto.Dial(mon.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SendDot("plan", "digraph plan {\n  n0 [label=\"X_0 := sql.mvc();\"];\n}")
	evs := make([]profiler.Event, chunk)
	for sent := 0; sent < total; sent += chunk {
		for i := range evs {
			evs[i] = profiler.Event{Seq: int64(sent + i), Stmt: "X_0 := sql.mvc();"}
		}
		s.EmitBatch(evs)
		// Pace the sender by the receiver so no datagram overflows the
		// socket buffer.
		waitSource(t, mon, sent+chunk)
	}
	src := mon.Sources()[0]
	if !mon.complete(src) {
		t.Fatal("a source with a parsed plan and events is not complete")
	}
	if allocs := testing.AllocsPerRun(20, func() { mon.complete(src) }); allocs != 0 {
		t.Errorf("complete allocates %v times per call on a %d-event source", allocs, total)
	}
}
