// Facade-level tests of shared-work serving: byte-identical results
// under single-flight dedup, deterministic attach semantics, the
// WithResultCache lifecycle (hits, TTL expiry with a fake clock,
// invalidation on Persist and dataset swap), and concurrent Explain
// stability. The CI race job runs this file under -race.
package stethoscope

import (
	"context"
	"fmt"
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
// never shares (the flight dedupes concurrency, it never caches; no
// result cache is configured), so the baselines are unshared by
// construction.
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

// TestSharedExecByteEqualityMorsel repeats the sweep's core claim
// under the morsel-driven lowering, where the sharing key additionally
// carries the morsel size.
func TestSharedExecByteEqualityMorsel(t *testing.T) {
	db, err := Open(WithScaleFactor(0.002))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	q := "select l_returnflag, sum(l_extendedprice) as rev, count(*) as n from lineitem where l_quantity > 10 group by l_returnflag order by l_returnflag"
	opts := []ExecOption{ExecPartitions(4), ExecWorkers(4), ExecMorselRows(64)}
	base, err := db.Exec(ctx, q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := tableBytes(t, base)
	const clients = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	fail := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r, err := db.Exec(ctx, q, opts...)
			if err != nil {
				fail <- err.Error()
				return
			}
			if tableBytes(t, r) != want {
				fail <- fmt.Sprintf("shared=%q result differs from unshared baseline", r.Stats.Shared)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
}

// TestSharedExecAttachDeterministic pins the attach contract without
// racing real executions: a leader is planted in the DB's flight under
// the exact key Exec builds, held open on a gate, and released only
// after a concurrent Exec has verifiably attached. The follower's
// Result must carry the leader's outcome — same result table, the
// leader's resolved settings and history id, Stats.Shared = "attached"
// — and the attach must land in DB.Stats.
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
		_, _, attached, waiters := db.run.Shared.Flight.Do(ctx, key, func() (*sharedwork.Outcome, error) {
			<-gate
			return outcome, nil
		})
		if attached {
			t.Error("planted leader reported attached")
		}
		leaderWaiters = waiters
	}()
	waitFor(t, "leader registration", func() bool { return db.run.Shared.Flight.InFlight() == 1 })

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
}

// TestResultCacheServesRepeats covers the WithResultCache happy path:
// the second identical statement is served from the cache,
// byte-identical, marked Shared = "resultcache", echoing the producing
// run's settings; a different compile geometry is a different key.
func TestResultCacheServesRepeats(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001), WithResultCache(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	q := "select l_shipmode, count(*) as n from lineitem group by l_shipmode order by l_shipmode"
	r1, err := db.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Shared != "" {
		t.Fatalf("first execution Shared = %q, want fresh", r1.Stats.Shared)
	}
	r2, err := db.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Shared != "resultcache" {
		t.Fatalf("repeat Shared = %q, want resultcache", r2.Stats.Shared)
	}
	if tableBytes(t, r2) != tableBytes(t, r1) {
		t.Fatal("cached result bytes differ")
	}
	// The worker count is not part of result identity: a different
	// worker request still hits, echoing the producer's resolved count.
	r3, err := db.Exec(ctx, q, ExecWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats.Shared != "resultcache" || r3.Stats.Workers != r1.Stats.Workers {
		t.Fatalf("worker variation: Shared=%q Workers=%d, want resultcache with producer's %d",
			r3.Stats.Shared, r3.Stats.Workers, r1.Stats.Workers)
	}
	// Partition geometry is part of result identity: different key.
	r4, err := db.Exec(ctx, q, ExecPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	if r4.Stats.Shared != "" {
		t.Fatalf("partition variation served shared result (%q); geometry must key the cache", r4.Stats.Shared)
	}
	st := db.Stats()
	if st.ResultCache.Hits != 2 || st.ResultCache.Len != 2 {
		t.Fatalf("result-cache stats = %+v, want 2 hits and 2 entries", st.ResultCache)
	}
}

// TestResultCacheInvalidation re-executes after the two dataset
// boundaries the ISSUE names — Persist, and a Persist + OpenPath swap
// — and proves no stale rows are served across either.
func TestResultCacheInvalidation(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001), WithResultCache(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	q := "select l_returnflag, count(*) as n from lineitem group by l_returnflag order by l_returnflag"
	r1, err := db.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want := tableBytes(t, r1)
	if r2, err := db.Exec(ctx, q); err != nil || r2.Stats.Shared != "resultcache" {
		t.Fatalf("warm-up repeat: shared=%v err=%v", r2.Stats.Shared, err)
	}

	dir := t.TempDir()
	if err := db.Persist(dir); err != nil {
		t.Fatal(err)
	}
	r3, err := db.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats.Shared != "" {
		t.Fatalf("post-Persist execution served %q; Persist must invalidate the result cache", r3.Stats.Shared)
	}
	if tableBytes(t, r3) != want {
		t.Fatal("post-Persist re-execution returned different rows")
	}
	if inv := db.Stats().ResultCache.Invalidations; inv < 1 {
		t.Fatalf("invalidations = %d, want >= 1", inv)
	}

	// Dataset swap: a DB opened over the persisted directory starts
	// with an empty result cache and must re-execute, not inherit.
	db2, err := OpenPath(dir, WithResultCache(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	r4, err := db2.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Stats.Shared != "" {
		t.Fatalf("first execution on swapped dataset served %q", r4.Stats.Shared)
	}
	if tableBytes(t, r4) != want {
		t.Fatal("swapped dataset returned different rows for the same data")
	}
	if r5, err := db2.Exec(ctx, q); err != nil || r5.Stats.Shared != "resultcache" {
		t.Fatalf("swapped-dataset repeat: shared=%v err=%v", r5.Stats.Shared, err)
	}
}

// TestResultCacheTTLExpiryFacade drives the TTL through the facade
// with a fake clock: within the TTL the repeat is served, past it the
// statement re-executes and the expiry is counted.
func TestResultCacheTTLExpiryFacade(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001), WithResultCache(4, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	now := time.Unix(1_000_000, 0)
	db.run.Shared.Cache.SetClock(func() time.Time { return now })
	ctx := context.Background()
	q := "select count(*) from lineitem"
	if _, err := db.Exec(ctx, q); err != nil {
		t.Fatal(err)
	}
	now = now.Add(30 * time.Second)
	r2, err := db.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Shared != "resultcache" {
		t.Fatalf("repeat within TTL: Shared = %q", r2.Stats.Shared)
	}
	now = now.Add(31 * time.Second) // 61s past insertion: expired
	r3, err := db.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats.Shared != "" {
		t.Fatalf("repeat past TTL served %q; entry must have expired", r3.Stats.Shared)
	}
	if exp := db.Stats().ResultCache.Expirations; exp != 1 {
		t.Fatalf("expirations = %d, want 1", exp)
	}
	// The re-execution re-populated the cache with a fresh TTL.
	if r4, err := db.Exec(ctx, q); err != nil || r4.Stats.Shared != "resultcache" {
		t.Fatalf("post-expiry repeat: shared=%v err=%v", r4.Stats.Shared, err)
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
