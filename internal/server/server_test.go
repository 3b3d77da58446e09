package server

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"stethoscope/internal/core"
	"stethoscope/internal/engine"
	"stethoscope/internal/plancache"
	"stethoscope/internal/profiler"
	"stethoscope/internal/runner"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
	"stethoscope/internal/tracestore"
)

// CacheStats and Engine reach through to the server's run service.
func (s *Server) CacheStats() plancache.Stats { return s.run.Stats().Cache }
func (s *Server) Engine() *engine.Engine      { return s.run.Engine }

func startServer(t testing.TB) *Server {
	t.Helper()
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.001, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	srv := New(context.Background(), "test-server", runner.New(cat, nil))
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dialServer(t testing.TB, srv *Server) *Client {
	t.Helper()
	c, err := DialServer(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestCommandRefusesBlankAndMultiLine: a blank line (the server sends
// no reply to one) and a line with an embedded CR or LF (the server
// would read several commands) are refused before anything is written,
// so neither hangs and the next command still gets its own reply.
func TestCommandRefusesBlankAndMultiLine(t *testing.T) {
	srv := startServer(t)
	c := dialServer(t, srv)
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	for _, line := range []string{"", "  \t", "STATS\nTABLES", "TABLES\r\nSTATS", "TABLES\rSTATS"} {
		if _, _, err := c.Command(line); err == nil || strings.Contains(err.Error(), "timeout") {
			t.Errorf("Command(%q) = %v, want a prompt refusal", line, err)
		}
	}
	status, payload, err := c.Command("TABLES")
	if err != nil || status != "ok" || len(payload) != 8 {
		t.Fatalf("TABLES after the refusals = %q, %d lines, %v", status, len(payload), err)
	}
}

func TestGreetingAndTables(t *testing.T) {
	srv := startServer(t)
	c := dialServer(t, srv)
	status, payload, err := c.Command("TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if status != "ok" {
		t.Errorf("status = %q", status)
	}
	if len(payload) != 8 {
		t.Errorf("tables = %v", payload)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	srv := startServer(t)
	c := dialServer(t, srv)
	_, payload, err := c.Command("QUERY select count(*) as n from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != 2 || payload[0] != "n" {
		t.Fatalf("payload = %v", payload)
	}
	li, _ := srv.Engine().Catalog().Table("sys", "lineitem")
	if payload[1] != strconv.Itoa(li.Rows()) {
		t.Errorf("count = %s, want %d", payload[1], li.Rows())
	}
}

func TestExplainAndDot(t *testing.T) {
	srv := startServer(t)
	c := dialServer(t, srv)
	_, listing, err := c.Command("EXPLAIN select l_tax from lineitem where l_partkey=1")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(listing, "\n")
	if !strings.Contains(joined, "algebra.thetaselect") {
		t.Errorf("explain missing selection:\n%s", joined)
	}
	_, dotLines, err := c.Command("DOT select l_tax from lineitem where l_partkey=1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dotLines[0], "digraph") {
		t.Errorf("dot output:\n%s", strings.Join(dotLines, "\n"))
	}
}

func TestSetPartitionsChangesPlan(t *testing.T) {
	srv := startServer(t)
	c := dialServer(t, srv)
	_, base, err := c.Command("DOT select l_tax from lineitem where l_partkey=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Command("SET partitions 8"); err != nil {
		t.Fatal(err)
	}
	_, part, err := c.Command("DOT select l_tax from lineitem where l_partkey=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(part) <= len(base) {
		t.Errorf("partitioned dot not larger: %d vs %d lines", len(part), len(base))
	}
}

func TestErrorResponses(t *testing.T) {
	srv := startServer(t)
	c := dialServer(t, srv)
	if _, _, err := c.Command("QUERY select nope from lineitem"); err == nil {
		t.Error("bad query accepted")
	}
	if _, _, err := c.Command("NONSENSE"); err == nil {
		t.Error("unknown command accepted")
	}
	if _, _, err := c.Command("SET partitions zero"); err == nil {
		t.Error("bad SET accepted")
	}
	if _, _, err := c.Command("FILTER wat"); err == nil {
		t.Error("bad FILTER accepted")
	}
	// Connection still usable after errors.
	if _, _, err := c.Command("TABLES"); err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
}

func TestOnlineEndToEnd(t *testing.T) {
	// Full paper workflow: textual stethoscope listens on UDP, the server
	// streams dot + trace during QUERY, the client builds a session and
	// colors it.
	srv := startServer(t)
	ts, err := core.StartTextualContext(context.Background(), "127.0.0.1:0", 256)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	c := dialServer(t, srv)
	if _, _, err := c.Command("TRACE " + ts.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Command("SET workers 4"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Command("SET partitions 4"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Command("QUERY select l_tax from lineitem where l_partkey=1"); err != nil {
		t.Fatal(err)
	}

	// Wait for the stream to drain.
	deadline := time.Now().Add(5 * time.Second)
	var addr string
	for time.Now().Before(deadline) {
		for _, a := range ts.Servers() {
			ss, _ := ts.Server(a)
			if _, err := ss.Graph(); err == nil && len(ss.Events()) > 0 {
				addr = a
			}
		}
		if addr != "" {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if addr == "" {
		t.Fatal("no complete stream received")
	}
	ss, _ := ts.Server(addr)
	if ss.ServerName() != "test-server" {
		t.Errorf("server name = %q", ss.ServerName())
	}
	g, err := ss.Graph()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(g, ss.Store(), core.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.Graph.Nodes) == 0 {
		t.Error("empty online graph")
	}
	if len(sess.Mapping.Unmatched) != 0 {
		t.Errorf("unmatched pcs: %v", sess.Mapping.Unmatched)
	}
}

func TestServerFilterReducesStream(t *testing.T) {
	srv := startServer(t)
	ts, err := core.StartTextualContext(context.Background(), "127.0.0.1:0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	c := dialServer(t, srv)
	if _, _, err := c.Command("TRACE " + ts.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Command("FILTER states=done"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Command("QUERY select l_tax from lineitem where l_partkey=1"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, a := range ts.Servers() {
			ss, _ := ts.Server(a)
			evs := ss.Events()
			if len(evs) > 0 {
				time.Sleep(50 * time.Millisecond) // allow stragglers
				evs = ss.Events()
				for _, e := range evs {
					if e.State.String() != "done" {
						t.Fatalf("filtered stream leaked %v", e.State)
					}
				}
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no events received")
}

func TestAlgebraCommand(t *testing.T) {
	srv := startServer(t)
	c := dialServer(t, srv)
	_, tree, err := c.Command("ALGEBRA select l_returnflag, sum(l_quantity) from lineitem where l_partkey < 5 group by l_returnflag")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(tree, "\n")
	for _, want := range []string{"project", "group by", "filter", "scan sys.lineitem"} {
		if !strings.Contains(joined, want) {
			t.Errorf("algebra tree missing %q:\n%s", want, joined)
		}
	}
	if _, _, err := c.Command("ALGEBRA select nope from lineitem"); err == nil {
		t.Error("bad algebra query accepted")
	}
}

// TestCloseUnblocksIdleConnections pins the shutdown liveness guarantee:
// Close must not wait on connection handlers parked in the read loop for
// clients that never hang up.
func TestCloseUnblocksIdleConnections(t *testing.T) {
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.001, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	srv := New(context.Background(), "test-server", runner.New(cat, nil))
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := DialServer(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The client is idle: it sends nothing, so the handler sits in
	// sc.Scan. Close must still return promptly.
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an idle client connection")
	}
}

// TestStatsCountsInstructionsByReply: the engine merges a run's
// instruction metrics before the run returns, so STATS sent after a
// QUERY's reply already counts every instruction the query ran — one
// run of its cached plan per statement.
func TestStatsCountsInstructionsByReply(t *testing.T) {
	srv := startServer(t)
	c := dialServer(t, srv)
	for i := 1; i <= 3; i++ {
		if _, _, err := c.Command(fmt.Sprintf("QUERY select l_tax from lineitem where l_partkey=%d", i)); err != nil {
			t.Fatal(err)
		}
		instrs := 0
		for _, k := range srv.run.Planner.Cache.Keys() {
			e, _ := srv.run.Planner.Cache.Peek(k)
			instrs += len(e.Plan.Instrs)
		}
		_, payload, err := c.Command("STATS")
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("engine_runs=%d engine_instructions=%d ", i, instrs); len(payload) < 2 || !strings.HasPrefix(payload[1], want) {
			t.Fatalf("STATS after %d queries: %q, want prefix %q", i, payload, want)
		}
	}
}

func TestStatsCommandAndSharedCache(t *testing.T) {
	srv := startServer(t)
	const q = "QUERY select l_tax from lineitem where l_partkey=1"

	// Session one compiles (miss), session two hits the shared cache.
	c1 := dialServer(t, srv)
	if _, _, err := c1.Command(q); err != nil {
		t.Fatal(err)
	}
	c2 := dialServer(t, srv)
	if _, _, err := c2.Command(q); err != nil {
		t.Fatal(err)
	}
	st := srv.CacheStats()
	if st.Hits < 1 || st.Misses < 1 {
		t.Fatalf("shared cache not consulted across sessions: %+v", st)
	}

	_, payload, err := c2.Command("STATS")
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != 5 || !strings.Contains(payload[0], "cache_hits=") {
		t.Fatalf("STATS payload = %q", payload)
	}
	// The cache line names what the cached plans own of the heap.
	if cb := fmt.Sprintf(" cache_bytes=%d", plancache.Bytes(srv.run.Planner.Cache, srv.run.Planner.Templates)); !strings.HasSuffix(payload[0], cb) || strings.HasSuffix(payload[0], " cache_bytes=0") {
		t.Fatalf("STATS cache line = %q, want a non-zero%s", payload[0], cb)
	}
	if !strings.Contains(payload[1], "engine_runs=") || !strings.Contains(payload[1], "engine_queries_inflight=") ||
		strings.Contains(payload[1], "morsel") {
		t.Fatalf("STATS engine line = %q", payload[1])
	}
	// One cell per engine fact: the instruction count is the duration
	// histogram's count, the in-flight count the progress table's size.
	instrUs, _ := srv.run.Registry.Snapshot().Get("stetho_engine_instr_duration_us")
	if want := fmt.Sprintf(" engine_instructions=%d ", instrUs.Count); instrUs.Count == 0 || !strings.Contains(payload[1], want) {
		t.Fatalf("STATS engine line = %q, want %q", payload[1], want)
	}
	if !strings.HasSuffix(payload[1], " engine_queries_inflight=0") {
		t.Fatalf("STATS engine line = %q, want nothing in flight", payload[1])
	}
	if !strings.Contains(payload[2], "sessions_total=") || !strings.Contains(payload[2], "commands=") {
		t.Fatalf("STATS server line = %q", payload[2])
	}
	if f := strings.Fields(payload[3]); len(f) != 2 || !strings.HasPrefix(f[0], "sharedwork_led=") || !strings.HasPrefix(f[1], "sharedwork_attached=") {
		t.Fatalf("STATS shared-work line = %q", payload[3])
	}
	// One statement text, compiled once: the template table missed once
	// and holds its shape.
	if want := "template_hits=0 template_misses=1 template_evictions=0 template_len=1 template_cap="; !strings.HasPrefix(payload[4], want) {
		t.Fatalf("STATS template line = %q, want prefix %q", payload[4], want)
	}

	// Different partition settings must compile separately.
	if _, _, err := c2.Command("SET partitions 4"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.Command(q); err != nil {
		t.Fatal(err)
	}
	if after := srv.CacheStats(); after.Misses != st.Misses+1 {
		t.Fatalf("partition change should force a compile: before %+v after %+v", st, after)
	}
}

func TestConcurrentSessions(t *testing.T) {
	srv := startServer(t)
	queries := []string{
		"QUERY select l_tax from lineitem where l_partkey=1",
		"QUERY select l_orderkey from lineitem where l_quantity > 30",
		"QUERY select count(*) from lineitem",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := DialServer(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if g%2 == 1 {
				if _, _, err := c.Command("SET workers 4"); err != nil {
					errs <- err
					return
				}
			}
			for i := 0; i < 5; i++ {
				q := queries[(g+i)%len(queries)]
				if _, rows, err := c.Command(q); err != nil {
					errs <- err
					return
				} else if len(rows) == 0 {
					errs <- fmt.Errorf("%s returned no rows", q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := srv.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("concurrent sessions never hit the shared cache: %+v", st)
	}
}

// startHistoryServer is startServer with a trace store attached.
func startHistoryServer(t testing.TB) *Server {
	t.Helper()
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.001, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	store, err := tracestore.Open(tracestore.Options{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := New(context.Background(), "history-server", runner.New(cat, store))
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestHistoryCommand drives the HISTORY protocol: QUERY executions are
// recorded durably and served back over LIST/TOP/INFO/TRACE/DOT/DIFF.
func TestHistoryCommand(t *testing.T) {
	srv := startHistoryServer(t)
	c := dialServer(t, srv)
	q := "QUERY select l_tax from lineitem where l_partkey=1"
	for i := 0; i < 2; i++ {
		if _, _, err := c.Command(q); err != nil {
			t.Fatal(err)
		}
	}
	_, lines, err := c.Command("HISTORY LIST")
	if err != nil {
		t.Fatalf("HISTORY LIST: %v", err)
	}
	if len(lines) != 2 {
		t.Fatalf("HISTORY LIST = %d lines:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	// Most recent first, complete, with the SQL quoted.
	if !strings.Contains(lines[0], "id=2") || !strings.Contains(lines[0], "complete=true") ||
		!strings.Contains(lines[0], `sql="select l_tax`) {
		t.Fatalf("HISTORY LIST line = %q", lines[0])
	}
	if _, lines, err = c.Command("HISTORY TOP 1"); err != nil || len(lines) != 1 {
		t.Fatalf("HISTORY TOP 1: %v (%d lines)", err, len(lines))
	}
	if _, lines, err = c.Command("HISTORY INFO 1"); err != nil || len(lines) != 1 ||
		!strings.Contains(lines[0], "id=1") {
		t.Fatalf("HISTORY INFO 1: %v %q", err, lines)
	}
	// TRACE returns parseable event lines matching the store.
	_, traceLines, err := c.Command("HISTORY TRACE 1")
	if err != nil {
		t.Fatalf("HISTORY TRACE: %v", err)
	}
	_, _, evs, err := srv.run.History.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(traceLines) != len(evs) {
		t.Fatalf("HISTORY TRACE = %d lines, store has %d events", len(traceLines), len(evs))
	}
	if _, err := profiler.UnmarshalEvent(traceLines[0]); err != nil {
		t.Fatalf("HISTORY TRACE line does not parse: %v", err)
	}
	// The serving counters counted exactly the stored events, once each.
	want := 0
	for _, id := range []uint64{1, 2} {
		info, ok := srv.run.History.Run(id)
		if !ok {
			t.Fatalf("run %d missing from store", id)
		}
		want += info.Events
	}
	if counted := srv.run.Stats().Events; counted != int64(want) {
		t.Fatalf("Stats counted %d events, store holds %d", counted, want)
	}
	_, dotLines, err := c.Command("HISTORY DOT 2")
	if err != nil || len(dotLines) == 0 || !strings.Contains(dotLines[0], "digraph") {
		t.Fatalf("HISTORY DOT: %v %q", err, dotLines)
	}
	_, diffLines, err := c.Command("HISTORY DIFF 1 2")
	if err != nil || len(diffLines) == 0 || !strings.Contains(diffLines[0], "elapsed_delta_us=") {
		t.Fatalf("HISTORY DIFF: %v %q", err, diffLines)
	}
	// Unknown runs and bad usage answer with err, not a hang.
	if _, _, err := c.Command("HISTORY TRACE 99"); err == nil {
		t.Fatal("HISTORY TRACE 99 succeeded for a missing run")
	}
	if _, _, err := c.Command("HISTORY BOGUS"); err == nil {
		t.Fatal("HISTORY BOGUS succeeded")
	}
}

// TestHistoryDisabled pins the error answer on servers without a store.
func TestHistoryDisabled(t *testing.T) {
	srv := startServer(t)
	c := dialServer(t, srv)
	if _, _, err := c.Command("HISTORY LIST"); err == nil ||
		!strings.Contains(err.Error(), "not enabled") {
		t.Fatalf("HISTORY on a history-less server: %v", err)
	}
}

// TestSetAutoAndClamping: sessions accept "SET partitions auto", clamp
// out-of-range numeric values through the shared normalization rule,
// and never alias the plan cache with un-normalized keys.
func TestSetAutoAndClamping(t *testing.T) {
	srv := startServer(t)
	c := dialServer(t, srv)
	q := "EXPLAIN select l_tax from lineitem where l_partkey=1"

	if _, _, err := c.Command("SET partitions auto"); err != nil {
		t.Fatalf("SET partitions auto: %v", err)
	}
	if _, _, err := c.Command("SET workers auto"); err != nil {
		t.Fatalf("SET workers auto: %v", err)
	}
	if _, _, err := c.Command(q); err != nil {
		t.Fatalf("EXPLAIN under auto: %v", err)
	}

	// partitions=1 and the clamped partitions=0 must share one cache
	// entry (plus the auto entry from above).
	if _, _, err := c.Command("SET partitions 1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Command(q); err != nil {
		t.Fatal(err)
	}
	before := srv.CacheStats().Len
	if _, _, err := c.Command("SET partitions 0"); err != nil {
		t.Fatalf("SET partitions 0 rejected instead of clamped: %v", err)
	}
	if _, _, err := c.Command(q); err != nil {
		t.Fatal(err)
	}
	if after := srv.CacheStats().Len; after != before {
		t.Errorf("clamped partitions=0 added a cache entry: %d -> %d", before, after)
	}

	// Garbage still errors.
	if _, _, err := c.Command("SET partitions zero"); err == nil {
		t.Error("non-numeric SET accepted")
	}
}

// TestOversizedPartitionsRefused: a partition count above
// runner.MaxPartitions costs the statement an error before anything
// compiles — promptly, not after the compiler has built a plan of that
// width — and the session and every other session keep working.
func TestOversizedPartitionsRefused(t *testing.T) {
	srv := startServer(t)
	c := dialServer(t, srv)
	other := dialServer(t, srv)
	q := "QUERY select l_tax from lineitem where l_partkey=1"
	if _, _, err := c.Command("SET partitions 100000000"); err != nil {
		t.Fatalf("SET partitions: %v", err)
	}
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	_, _, err := c.Command(q)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(runner.MaxPartitions)) {
		t.Fatalf("oversized QUERY = %v, want an error naming the limit %d", err, runner.MaxPartitions)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("oversized QUERY took %v to be refused", d)
	}
	if st := srv.CacheStats(); st.Misses != 0 {
		t.Errorf("the refused statement reached the plan cache: %+v", st)
	}
	status, payload, err := other.Command(q)
	if err != nil || status != "ok" || len(payload) == 0 {
		t.Fatalf("second session's QUERY = %q, %d lines, %v", status, len(payload), err)
	}
	if _, _, err := c.Command(fmt.Sprintf("SET partitions %d", runner.MaxPartitions)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Command("EXPLAIN select l_tax from lineitem where l_partkey=1"); err != nil {
		t.Fatalf("EXPLAIN at the limit: %v", err)
	}
}

// TestOversizedWorkersRefused: "SET workers" above runner.MaxWorkers
// is stored like any count, and the session's next QUERY answers err
// naming the limit before anything compiles or runs: no worker
// goroutine starts and no per-worker metric series is registered.
func TestOversizedWorkersRefused(t *testing.T) {
	srv := startServer(t)
	c := dialServer(t, srv)
	if _, _, err := c.Command(fmt.Sprintf("SET workers %d", runner.MaxWorkers+1)); err != nil {
		t.Fatalf("SET workers: %v", err)
	}
	status, _, err := c.Command("QUERY select l_tax from lineitem where l_partkey=1")
	if err == nil || !strings.HasPrefix(status, "err") || !strings.Contains(err.Error(), strconv.Itoa(runner.MaxWorkers)) {
		t.Fatalf("oversized QUERY = %q, %v; want err naming the limit %d", status, err, runner.MaxWorkers)
	}
	if st := srv.CacheStats(); st.Misses != 0 {
		t.Errorf("the refused statement reached the plan cache: %+v", st)
	}
	if _, ok := srv.run.Registry.Snapshot().Get(`stetho_engine_worker_instructions_total{worker="1"}`); ok {
		t.Error("the refused statement registered a second worker's series")
	}
}

// TestSetMorsel: QUERY always lowers by static mitosis and nothing
// caches outcomes, so "SET morsel" and "SET resultcache" are unknown
// settings like any other — whatever their value — they leave the
// session's results untouched, and the usage error lists the settings
// that exist.
func TestSetMorsel(t *testing.T) {
	srv := startServer(t)
	c := dialServer(t, srv)
	q := "QUERY select l_returnflag, sum(l_quantity) as s from lineitem group by l_returnflag order by l_returnflag"
	_, want, err := c.Command(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []string{"SET morsel 64", "SET morsel auto", "SET morsel off", "SET resultcache on"} {
		if status, _, err := c.Command(set); err == nil || !strings.HasPrefix(status, "err unknown setting") {
			t.Fatalf("%s: status %q, want err unknown setting", set, status)
		}
		_, got, err := c.Command(q)
		if err != nil {
			t.Fatalf("QUERY after %q: %v", set, err)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("results changed after %q:\n%s\nwant:\n%s", set, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	status, _, err := c.Command("SET morsel")
	if want := "err usage: SET <partitions|workers> <n|auto>"; err == nil || status != want {
		t.Errorf("SET usage = %q, want %q", status, want)
	}
}

// TestServerDefaultsAreAdaptive: a fresh session executes QUERY without
// any SET and the tiny test catalog resolves to sequential execution —
// the default is auto, not a fixed knob.
func TestServerDefaultsAreAdaptive(t *testing.T) {
	srv := startServer(t)
	c := dialServer(t, srv)
	_, payload, err := c.Command("QUERY select l_returnflag, sum(l_quantity) as s from lineitem group by l_returnflag order by l_returnflag")
	if err != nil {
		t.Fatalf("QUERY under default (auto) settings: %v", err)
	}
	if len(payload) < 2 {
		t.Fatalf("payload = %v", payload)
	}
}
