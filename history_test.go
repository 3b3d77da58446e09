// Query-history facade tests: the durable trace store exercised through
// the public API exactly as an operator's tooling would use it.
package stethoscope_test

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"stethoscope"
	"stethoscope/internal/tpch"
)

func openHistoryDB(t *testing.T, dir string) *stethoscope.DB {
	t.Helper()
	db, err := stethoscope.Open(
		stethoscope.WithScaleFactor(0.005),
		stethoscope.WithSeed(42),
		stethoscope.WithHistory(dir),
	)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

// TestHistoryRoundTrip pins the acceptance criterion: a query executed
// with WithHistory reopens via History.Get/Replay with an event stream
// identical to the live Result trace — including across a process
// "restart" (store reopen).
func TestHistoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := openHistoryDB(t, dir)
	res, err := db.Exec(context.Background(), figure1Query,
		stethoscope.ExecPartitions(4), stethoscope.ExecWorkers(2))
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if res.Stats.RunID == 0 {
		t.Fatal("Exec under WithHistory returned RunID 0")
	}
	h := db.History()
	if h == nil {
		t.Fatal("DB.History() = nil with history enabled")
	}

	verify := func(h *stethoscope.History, stage string) {
		t.Helper()
		run, err := h.Get(res.Stats.RunID)
		if err != nil {
			t.Fatalf("%s: Get: %v", stage, err)
		}
		if !reflect.DeepEqual(run.Events(), res.Events()) {
			t.Fatalf("%s: stored event stream differs from the live trace", stage)
		}
		if run.Dot() != res.Dot() || run.TraceText() != res.TraceText() {
			t.Fatalf("%s: stored dot or trace text differs from the live Result's", stage)
		}
		if run.Info.SQL != figure1Query || run.Info.Partitions != 4 || run.Info.Workers != 2 ||
			!run.Info.OK() || run.Info.Rows != res.RowCount() {
			t.Fatalf("%s: run info = %+v", stage, run.Info)
		}
		// Replay: the stored run opens as a full analysis session with a
		// complete trace ↔ plan mapping, working coloring and SVG.
		a, err := h.Replay(res.Stats.RunID)
		if err != nil {
			t.Fatalf("%s: Replay: %v", stage, err)
		}
		if !a.MappingComplete() {
			t.Fatalf("%s: replayed mapping incomplete: %s", stage, a.MappingSummary())
		}
		if a.TraceLen() != res.TraceLen() {
			t.Fatalf("%s: replayed trace %d events, want %d", stage, a.TraceLen(), res.TraceLen())
		}
		if svg, err := a.SVG(); err != nil || !strings.Contains(svg, "<svg") {
			t.Fatalf("%s: SVG render on historical trace: %v", stage, err)
		}
	}
	verify(h, "live DB")

	// The stored run also reopens through the generic offline path.
	run, err := h.Get(res.Stats.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if a, err := stethoscope.OpenOffline(run.Dot(), run.TraceText()); err != nil || !a.MappingComplete() {
		t.Fatalf("OpenOffline over stored artifacts: %v", err)
	}
	// Over TCP, HISTORY TRACE serves the live trace text byte for byte.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := db.Serve(ctx, "roundtrip", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r, err := stethoscope.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if traceText, err := r.HistoryTrace(res.Stats.RunID); err != nil || traceText != res.TraceText() {
		t.Fatalf("HISTORY TRACE differs from Result.TraceText (%v)", err)
	}
	r.Close()
	srv.Close()

	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// "Yesterday's" trace: reopen the store standalone.
	h2, err := stethoscope.OpenHistory(dir)
	if err != nil {
		t.Fatalf("OpenHistory: %v", err)
	}
	defer h2.Close()
	verify(h2, "reopened store")
}

// TestHistoryAggregation exercises Queries/TopN/Compare/rollups over a
// small recorded workload.
func TestHistoryAggregation(t *testing.T) {
	db := openHistoryDB(t, t.TempDir())
	defer db.Close()
	ctx := context.Background()
	queries := []string{
		figure1Query,
		"select l_orderkey from lineitem where l_quantity > 30",
		figure1Query,
	}
	var ids []uint64
	for _, q := range queries {
		res, err := db.Exec(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.Stats.RunID)
	}
	h := db.History()
	if got := h.Queries(0); len(got) != 3 || got[0].ID != ids[2] {
		t.Fatalf("Queries(0) = %+v", got)
	}
	if got := h.Queries(2); len(got) != 2 {
		t.Fatalf("Queries(2) returned %d runs", len(got))
	}
	if top := h.TopN(3); len(top) != 3 {
		t.Fatalf("TopN(3) returned %d runs", len(top))
	}
	// Cross-run diff of the two figure-1 executions (second was a plan
	// cache hit, same SQL).
	d, err := h.Compare(ids[0], ids[2])
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if d.A.ID != ids[0] || d.B.ID != ids[2] || len(d.Instrs) == 0 {
		t.Fatalf("diff = %+v", d)
	}
	// Different SQL must refuse.
	if _, err := h.Compare(ids[0], ids[1]); err == nil {
		t.Fatal("Compare across different SQL succeeded")
	}
	mods, err := h.ModuleRollup()
	if err != nil || len(mods) == 0 {
		t.Fatalf("ModuleRollup: %v (%d rows)", err, len(mods))
	}
	run, err := h.Get(ids[0])
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if u := run.Utilization(); u.Threads == 0 {
		t.Fatalf("Utilization = %+v", u)
	}
}

// TestJoinBuildAndProbeRollUpApart: an unpartitioned run of Q5, whose
// four joins all probe a packed side, shows each join as a build and a
// probe, so the operator rollup carries an algebra.hashbuild and an
// algebra.hashprobe row, each with its own busy time, and no fused
// join row.
func TestJoinBuildAndProbeRollUpApart(t *testing.T) {
	db := openHistoryDB(t, t.TempDir())
	defer db.Close()
	q5, _ := tpch.QueryByID("Q5")
	res, err := db.Exec(context.Background(), q5.SQL, stethoscope.ExecPartitions(1))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := db.History().OperatorRollup(res.Stats.RunID)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]stethoscope.AggStat{}
	for _, row := range ops {
		calls[row.Module] = row
	}
	for _, op := range []string{"algebra.hashbuild", "algebra.hashprobe"} {
		if row, ok := calls[op]; !ok || row.Calls != 4 || row.BusyUs <= 0 {
			t.Errorf("%s row = %+v (present %t), want 4 calls with busy time", op, row, ok)
		}
	}
	if row, ok := calls["algebra.join"]; ok {
		t.Errorf("rollup has a fused join row: %+v", row)
	}
}

// TestServerHistoryOverTCP covers the HISTORY protocol command: a
// remote client lists past runs, fetches one, and reopens it locally —
// with the trace identical to what the history store recorded.
func TestServerHistoryOverTCP(t *testing.T) {
	db := openHistoryDB(t, t.TempDir())
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := db.Serve(ctx, "hist-test", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	r, err := stethoscope.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer r.Close()
	if _, err := r.Query(figure1Query); err != nil {
		t.Fatalf("Query: %v", err)
	}
	if _, err := r.Query(figure1Query); err != nil {
		t.Fatalf("Query: %v", err)
	}

	lines, err := r.HistoryList(0)
	if err != nil {
		t.Fatalf("HistoryList: %v", err)
	}
	if len(lines) != 2 {
		t.Fatalf("HistoryList = %d lines, want 2:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[0], "id=2") || !strings.Contains(lines[0], "complete=true") {
		t.Fatalf("HistoryList line = %q", lines[0])
	}
	if top, err := r.HistoryTop(1); err != nil || len(top) != 1 {
		t.Fatalf("HistoryTop: %v (%d lines)", err, len(top))
	}
	if diffLines, err := r.HistoryDiff(1, 2); err != nil || len(diffLines) == 0 ||
		!strings.Contains(diffLines[0], "elapsed_delta_us=") {
		t.Fatalf("HistoryDiff: %v %q", err, diffLines)
	}

	// Fetch a past run and reopen it locally.
	traceText, err := r.HistoryTrace(2)
	if err != nil {
		t.Fatalf("HistoryTrace: %v", err)
	}
	dotText, err := r.HistoryDot(2)
	if err != nil {
		t.Fatalf("HistoryDot: %v", err)
	}
	a, err := stethoscope.OpenOffline(dotText, traceText)
	if err != nil {
		t.Fatalf("OpenOffline over fetched run: %v", err)
	}
	if !a.MappingComplete() {
		t.Fatalf("fetched run mapping incomplete: %s", a.MappingSummary())
	}
	// The fetched trace matches the store's byte-for-byte.
	run, err := db.History().Get(2)
	if err != nil {
		t.Fatal(err)
	}
	if traceText != run.TraceText() {
		t.Fatal("trace fetched over TCP differs from the stored trace")
	}
}

// TestStatsCountsBatchedEventsOncePerEvent is the regression test for
// the serving-counter audit: a server QUERY whose trace leaves as
// EVTB-coalesced datagrams must contribute its exact per-event count to
// DB.Stats().Events — not one count per datagram.
func TestStatsCountsBatchedEventsOncePerEvent(t *testing.T) {
	db := openHistoryDB(t, t.TempDir())
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := db.Serve(ctx, "audit-test", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	mon, err := stethoscope.Attach(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	defer mon.Close()
	r, err := stethoscope.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer r.Close()
	if err := r.TraceTo(mon.Addr()); err != nil {
		t.Fatalf("TraceTo: %v", err)
	}
	// 16 partitions make the trace far larger than one 64-event EVTB
	// batch, so per-datagram counting would be visibly wrong.
	if err := r.Configure(16, 1); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	before := db.Stats()
	if _, err := r.Query(figure1Query); err != nil {
		t.Fatalf("Query: %v", err)
	}
	after := db.Stats()

	runs := db.History().Queries(1)
	if len(runs) != 1 {
		t.Fatalf("history has %d runs", len(runs))
	}
	wantEvents := int64(2 * runs[0].Instructions)
	if wantEvents <= 64 {
		t.Fatalf("trace too small to distinguish batching: %d events", wantEvents)
	}
	gotEvents := after.Events - before.Events
	if gotEvents != wantEvents {
		t.Fatalf("Stats().Events grew by %d, want %d (2 per instruction, once per event)", gotEvents, wantEvents)
	}
	if after.Execs-before.Execs != 1 {
		t.Fatalf("Stats().Execs grew by %d, want 1", after.Execs-before.Execs)
	}
	// The stored run agrees with the counter.
	if int64(runs[0].Events) != wantEvents {
		t.Fatalf("history recorded %d events, want %d", runs[0].Events, wantEvents)
	}
}

// TestFilterDoesNotCorruptHistory pins the filter-scoping contract: a
// session's display FILTER narrows only its UDP trace view; the durable
// history record and the serving counters always see the full stream.
func TestFilterDoesNotCorruptHistory(t *testing.T) {
	db := openHistoryDB(t, t.TempDir())
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := db.Serve(ctx, "filter-test", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	mon, err := stethoscope.Attach(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	defer mon.Close()
	r, err := stethoscope.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer r.Close()
	if err := r.TraceTo(mon.Addr()); err != nil {
		t.Fatalf("TraceTo: %v", err)
	}
	// Narrow the UDP view to one module.
	if _, _, err := r.Command("FILTER modules=algebra"); err != nil {
		t.Fatalf("FILTER: %v", err)
	}
	before := db.Stats()
	if _, err := r.Query(figure1Query); err != nil {
		t.Fatalf("Query: %v", err)
	}
	runs := db.History().Queries(1)
	if len(runs) != 1 {
		t.Fatalf("history has %d runs", len(runs))
	}
	full := 2 * runs[0].Instructions
	// The durable record holds the complete trace...
	if runs[0].Events != full {
		t.Fatalf("history recorded %d events under a session filter, want the full %d", runs[0].Events, full)
	}
	// ...the counters count the complete trace...
	if got := db.Stats().Events - before.Events; got != int64(full) {
		t.Fatalf("Stats().Events grew by %d under a session filter, want %d", got, full)
	}
	// ...and the filter still narrowed the UDP stream itself.
	deadline := time.Now().Add(2 * time.Second)
	for {
		sources := mon.Sources()
		if len(sources) > 0 {
			if evs := mon.Events(sources[0]); len(evs) > 0 {
				if len(evs) >= full {
					t.Fatalf("UDP stream carried %d events, filter should have dropped some of %d", len(evs), full)
				}
				for _, e := range evs {
					if !strings.Contains(e.Stmt, "algebra.") {
						t.Fatalf("filtered stream leaked non-algebra event: %s", e.Stmt)
					}
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no filtered events arrived at the monitor")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailedRunRecordsCacheHit pins that a run of a cached plan is
// recorded as a cache hit even when it fails: the plan came from the
// cache whether or not its execution completed.
func TestFailedRunRecordsCacheHit(t *testing.T) {
	db := openHistoryDB(t, t.TempDir())
	defer db.Close()
	if _, err := db.Exec(context.Background(), figure1Query); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Exec(ctx, figure1Query); err == nil {
		t.Fatal("Exec under a canceled context succeeded")
	}
	runs := db.History().Queries(1)
	if len(runs) != 1 {
		t.Fatalf("history has %d runs", len(runs))
	}
	if runs[0].Err == "" || !runs[0].CacheHit {
		t.Fatalf("last run: err=%q cache_hit=%t, want a failed cache hit", runs[0].Err, runs[0].CacheHit)
	}
}
