package stethoscope

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"stethoscope/internal/dot"
	"stethoscope/internal/sharedwork"
)

// Regression tests for the behaviour the single run service
// (internal/runner) gives every entry point alike.

// serveTest starts the DB's TCP front-end and dials one session pinned
// to the facade's default geometry (partitions 1, workers 1), so its
// statements key the shared-work gate exactly as a plain Exec does.
func serveTest(t *testing.T, db *DB) *Remote {
	t.Helper()
	srv, err := db.Serve(context.Background(), "runservice", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	r, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if err := r.Configure(1, 1); err != nil {
		t.Fatal(err)
	}
	return r
}

// plantLeader registers a leader for q in the DB's flight that holds
// its followers until release is called, then hands them (out, err).
func plantLeader(t *testing.T, db *DB, q string, out *sharedwork.Outcome, err error) (release func()) {
	t.Helper()
	key := sharedwork.Key{SQL: q, Partitions: 1, Passes: db.run.Planner.PassSpec}
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		db.run.Flight.Do(context.Background(), key, func() (*sharedwork.Outcome, error) {
			<-gate
			return out, err
		})
	}()
	waitFor(t, "leader registration", func() bool { return db.run.Flight.InFlight() == 1 })
	return func() { close(gate); wg.Wait() }
}

// TestSharedAttachParity: a follower attaches to an in-flight run the
// same way from both entry points — one shared execution is one history
// record, the in-process follower reports Stats.Shared = "attached" and
// the leader's RunID, and the TCP follower writes the same bytes.
func TestSharedAttachParity(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001), WithHistory(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	remote := serveTest(t, db)
	ctx := context.Background()
	q := "select l_tax from lineitem where l_partkey=1"
	leader, err := db.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	release := plantLeader(t, db, q, &sharedwork.Outcome{
		Res: leader.res, Elapsed: leader.Stats.Elapsed, RunID: leader.Stats.RunID,
		Partitions: 1, Workers: 1,
	}, nil)

	var wg sync.WaitGroup
	var follower *Result
	var rows []string
	var execErr, queryErr error
	wg.Add(2)
	go func() { defer wg.Done(); follower, execErr = db.Exec(ctx, q) }()
	go func() { defer wg.Done(); rows, queryErr = remote.Query(q) }()
	waitFor(t, "both followers attached", func() bool { return db.Stats().SharedAttached == 2 })
	release()
	wg.Wait()
	if execErr != nil || queryErr != nil {
		t.Fatalf("followers failed: Exec %v, QUERY %v", execErr, queryErr)
	}
	if follower.Stats.Shared != "attached" || follower.Stats.RunID != leader.Stats.RunID {
		t.Errorf("Exec follower Stats = %+v, want attached to run %d", follower.Stats, leader.Stats.RunID)
	}
	want := tableBytes(t, leader)
	if got := tableBytes(t, follower); got != want {
		t.Errorf("Exec follower bytes differ:\n%s\nwant:\n%s", got, want)
	}
	if got := strings.Join(rows, "\n") + "\n"; got != want {
		t.Errorf("QUERY follower bytes differ:\n%s\nwant:\n%s", got, want)
	}
	if runs := db.History().Queries(0); len(runs) != 1 || runs[0].ID != leader.Stats.RunID {
		t.Errorf("history holds %d runs after one shared execution, want the leader's alone: %+v", len(runs), runs)
	}
	if st := db.Stats(); st.Execs != 3 {
		t.Errorf("Execs = %d, want 3 (leader + two attached consumers)", st.Execs)
	}
}

// TestServerFollowerRerunsCanceledLeader: the "leader canceled,
// follower re-runs solo" branch of the runner is reachable from TCP —
// a session whose own context is live answers its statement even though
// the run it attached to died of its leader's cancellation.
func TestServerFollowerRerunsCanceledLeader(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	remote := serveTest(t, db)
	q := "select count(*) as n from lineitem"
	release := plantLeader(t, db, q, nil, context.Canceled)
	var rows []string
	var queryErr error
	done := make(chan struct{})
	go func() { defer close(done); rows, queryErr = remote.Query(q) }()
	waitFor(t, "follower attach", func() bool { return db.Stats().SharedAttached == 1 })
	release()
	<-done
	if queryErr != nil {
		t.Fatalf("QUERY failed with its leader's cancellation: %v", queryErr)
	}
	if len(rows) != 2 || rows[0] != "n" {
		t.Fatalf("QUERY rows = %q", rows)
	}
}

// TestServerQueryCountsInFlight: a server QUERY moves
// DBStats.InFlight (stetho_engine_queries_inflight) like Exec and
// Stream do.
func TestServerQueryCountsInFlight(t *testing.T) {
	db, err := Open(WithScaleFactor(0.02))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	remote := serveTest(t, db)
	// A fanned-out run parks on its workers between instructions, so the
	// sampler below gets the processor while the query is in flight even
	// under GOMAXPROCS=1. A sequential run is one uninterrupted stretch
	// of the session goroutine, visible to a sampler on the same
	// processor only if it outlasts the scheduler's 10 ms preemption
	// tick — which this statement did until PR 20's kernels.
	if err := remote.Configure(8, 2); err != nil {
		t.Fatal(err)
	}
	q := "select l_returnflag, l_linestatus, sum(l_quantity) as s, avg(l_extendedprice) as a from lineitem group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus"
	for attempt := 0; attempt < 20; attempt++ {
		stop := make(chan struct{})
		seen := make(chan bool, 1)
		go func() {
			for {
				select {
				case <-stop:
					seen <- false
					return
				default:
				}
				if db.Stats().InFlight > 0 {
					seen <- true
					return
				}
				time.Sleep(20 * time.Microsecond)
			}
		}()
		if _, err := remote.Query(q); err != nil {
			t.Fatal(err)
		}
		close(stop)
		if <-seen {
			if got := db.Stats().InFlight; got != 0 {
				t.Fatalf("InFlight = %d at rest", got)
			}
			return
		}
	}
	t.Fatal("InFlight never rose above 0 across 20 server QUERY executions")
}

// TestHistoryFailureTextParity: a failing history store fails every
// entry point with the same error text.
func TestHistoryFailureTextParity(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001), WithHistory(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	remote := serveTest(t, db)
	mon, err := Attach(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if err := db.History().Close(); err != nil {
		t.Fatal(err)
	}
	q := "select count(*) from lineitem"
	_, execErr := db.Exec(context.Background(), q)
	if execErr == nil || !strings.HasPrefix(execErr.Error(), "history: ") {
		t.Fatalf("Exec on a closed history store: %v", execErr)
	}
	status, _, _ := remote.Command("QUERY " + q)
	if want := "err " + execErr.Error(); status != want {
		t.Errorf("QUERY status = %q, want %q", status, want)
	}
	if err := remote.TraceTo(mon.Addr()); err != nil {
		t.Fatal(err)
	}
	status, _, _ = remote.Command("QUERY " + q)
	if want := "err " + execErr.Error(); status != want {
		t.Errorf("QUERY under TRACE status = %q, want %q", status, want)
	}
}

// TestStreamObservesLatency: a streaming run lands in the query
// latency histogram like every other run.
func TestStreamObservesLatency(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	count := func() int64 {
		s, _ := db.Metrics().Get("stetho_query_latency_us")
		return s.Count
	}
	before := count()
	it, err := db.Stream(context.Background(), "select l_tax from lineitem where l_partkey=1")
	if err != nil {
		t.Fatal(err)
	}
	for it.Next() {
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if got := count() - before; got != 1 {
		t.Fatalf("latency histogram observed %d runs for one Stream, want 1", got)
	}
}

// TestResultDotRenderedOncePerPlan: Result.Dot is the plan's dot export
// byte for byte, rendered once per cached plan — repeated calls and a
// later Exec that hits the plan cache return the same memoized string.
func TestResultDotRenderedOncePerPlan(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const q = "select l_tax from lineitem where l_partkey = 1"
	first, err := db.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := db.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.CacheHit {
		t.Fatal("second Exec missed the plan cache")
	}
	text := first.Dot()
	if want := dot.Export(first.prep.Plan).Marshal(); text != want {
		t.Fatalf("Result.Dot differs from the plan's dot export:\n%s\nwant\n%s", text, want)
	}
	for _, again := range []string{first.Dot(), second.Dot()} {
		if unsafe.StringData(again) != unsafe.StringData(text) {
			t.Fatal("Result.Dot rendered the cached plan again")
		}
	}
}
