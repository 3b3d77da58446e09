// Facade-level tests of shared-work serving: byte-identical results
// under single-flight dedup, deterministic attach semantics, and
// concurrent Explain stability. The CI race job runs this file under
// -race.
package stethoscope

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"stethoscope/internal/sharedwork"
)

// tableBytes renders a result to the exact bytes a client would see —
// the unit of the "shared results are byte-identical" claim.
func tableBytes(t *testing.T, r *Result) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSharedExecByteEquality is the equality sweep: for a scan, a
// join, a sort, and a grouped aggregate, at workers 1/4/8, a burst of
// concurrent identical Exec calls — whichever of them lead, attach, or
// interleave — must each return a result byte-identical to an unshared
// sequential execution at the same compile geometry. A sequential call
// never shares (the flight dedupes concurrency, it never caches), so
// the baselines are unshared by construction.
func TestSharedExecByteEquality(t *testing.T) {
	db, err := Open(WithScaleFactor(0.002))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	queries := []string{
		// scan
		"select l_orderkey, l_tax from lineitem where l_quantity > 30",
		// join
		"select o_orderpriority, count(*) as n from lineitem, orders where l_orderkey = o_orderkey group by o_orderpriority order by o_orderpriority",
		// sort
		"select l_orderkey, l_extendedprice from lineitem where l_quantity > 45 order by l_extendedprice desc, l_orderkey limit 100",
		// aggregate (float sums: partition geometry is pinned, so
		// association is identical across runs)
		"select l_returnflag, sum(l_quantity) as s, sum(l_extendedprice) as rev, count(*) as n from lineitem group by l_returnflag order by l_returnflag",
	}
	execs := 0
	for _, workers := range []int{1, 4, 8} {
		for qi, q := range queries {
			opts := []ExecOption{ExecPartitions(4), ExecWorkers(workers)}
			base, err := db.Exec(ctx, q, opts...)
			if err != nil {
				t.Fatalf("workers=%d query %d: baseline: %v", workers, qi, err)
			}
			execs++
			want := tableBytes(t, base)
			const clients = 8
			results := make([]*Result, clients)
			errs := make([]error, clients)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					<-start
					results[c], errs[c] = db.Exec(ctx, q, opts...)
				}(c)
			}
			close(start)
			wg.Wait()
			execs += clients
			for c := 0; c < clients; c++ {
				if errs[c] != nil {
					t.Fatalf("workers=%d query %d client %d: %v", workers, qi, c, errs[c])
				}
				if got := tableBytes(t, results[c]); got != want {
					t.Fatalf("workers=%d query %d client %d (shared=%q): result bytes differ from unshared baseline",
						workers, qi, c, results[c].Stats.Shared)
				}
			}
		}
	}
	st := db.Stats()
	if st.Execs != int64(execs) {
		t.Fatalf("execs = %d, want %d (every shared call still completes)", st.Execs, execs)
	}
	if st.SharedLed+st.SharedAttached != int64(execs) {
		t.Fatalf("led %d + attached %d != execs %d", st.SharedLed, st.SharedAttached, execs)
	}
}

// TestSharedExecAttachDeterministic pins the attach contract without
// racing real executions: a leader is planted in the DB's flight under
// the exact key Exec builds, held open on a gate, and released only
// after a concurrent Exec has verifiably attached. The follower's
// Result must carry the leader's outcome — same result table, the
// leader's resolved settings and history id, Stats.Shared = "attached"
// — and the attach must land in DB.Stats. Its events equal the leader's
// but live in a slice of their own: Result.Events hands the slice to
// callers, who may use it on any goroutine.
func TestSharedExecAttachDeterministic(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	q := "select l_tax from lineitem where l_partkey=1"
	solo, err := db.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	key := sharedwork.Key{SQL: q, Partitions: 1, Passes: db.run.Planner.PassSpec}
	outcome := &sharedwork.Outcome{
		Res:        solo.res,
		Events:     append([]Event(nil), solo.Events()...),
		Elapsed:    5 * time.Millisecond,
		RunID:      77,
		Partitions: 1,
		Workers:    3,
		TuneReason: "planted leader",
	}
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var leaderWaiters int
	go func() {
		defer wg.Done()
		_, _, attached, waiters := db.run.Flight.Do(ctx, key, func() (*sharedwork.Outcome, error) {
			<-gate
			return outcome, nil
		})
		if attached {
			t.Error("planted leader reported attached")
		}
		leaderWaiters = waiters
	}()
	waitFor(t, "leader registration", func() bool { return db.run.Flight.InFlight() == 1 })

	type res struct {
		r   *Result
		err error
	}
	done := make(chan res, 1)
	go func() {
		r, err := db.Exec(ctx, q)
		done <- res{r, err}
	}()
	waitFor(t, "follower attach", func() bool { return db.Stats().SharedAttached == 1 })
	close(gate)
	follower := <-done
	wg.Wait()
	if follower.err != nil {
		t.Fatal(follower.err)
	}
	r := follower.r
	if r.Stats.Shared != "attached" {
		t.Fatalf("Stats.Shared = %q, want attached", r.Stats.Shared)
	}
	if r.Stats.RunID != 77 || r.Stats.Workers != 3 || r.Stats.TuneReason != "planted leader" {
		t.Fatalf("follower did not echo the leader's outcome: %+v", r.Stats)
	}
	if r.res != solo.res {
		t.Fatal("follower result table is not the shared outcome's table")
	}
	if leaderWaiters != 1 {
		t.Fatalf("leader saw %d waiters, want 1", leaderWaiters)
	}
	if tableBytes(t, r) != tableBytes(t, solo) {
		t.Fatal("attached result bytes differ")
	}
	evs := r.Events()
	if len(outcome.Events) == 0 || !reflect.DeepEqual(evs, outcome.Events) {
		t.Fatalf("follower events (%d) differ from the planted outcome's (%d)", len(evs), len(outcome.Events))
	}
	if &evs[0] == &outcome.Events[0] {
		t.Fatal("follower events alias the shared outcome's slice")
	}
}

// TestResultColumnsAreCallersOwn: every Result attached to a shared run
// holds the same engine result, so Columns, like Events, hands each
// caller a copy; writing to it changes neither that caller's next call,
// another holder's columns nor the table's header.
func TestResultColumnsAreCallersOwn(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.Exec(context.Background(), "select l_tax from lineitem where l_partkey=1")
	if err != nil {
		t.Fatal(err)
	}
	attached := &Result{res: res.res}
	res.Columns()[0] = "mutated"
	for _, r := range []*Result{res, attached} {
		if got := r.Columns(); !reflect.DeepEqual(got, []string{"l_tax"}) {
			t.Errorf("Columns() = %v after a caller wrote to its copy", got)
		}
		if got := tableBytes(t, r); !strings.HasPrefix(got, "l_tax\n") {
			t.Errorf("table header %q after a caller wrote to its columns", strings.SplitN(got, "\n", 2)[0])
		}
	}
}

// TestExplainConcurrentCoalesce: concurrent identical Explain calls
// coalesce through the planner's single-flight instead of racing to
// populate the plan cache — under -race this pins the absence of the
// old compile race; the once-only-compile property itself is pinned by
// internal/planner's TestCompileFlightCoalescesConcurrentMisses.
func TestExplainConcurrentCoalesce(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	q := "select l_orderkey, l_extendedprice from lineitem where l_quantity > 40 order by l_extendedprice desc limit 10"
	const callers = 16
	listings := make([]string, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			listings[i], errs[i] = db.Explain(q)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if listings[i] != listings[0] {
			t.Fatalf("caller %d saw a different listing", i)
		}
	}
	if st := db.Stats(); st.Cache.Len != 1 {
		t.Fatalf("plan cache holds %d entries after %d identical Explains, want 1", st.Cache.Len, callers)
	}
}
