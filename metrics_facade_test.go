// Observability-layer tests: the always-on metrics registry, the live
// per-query progress table, and the opt-in HTTP exposition endpoint. The stress test here is part of
// the CI race job's serving-layer reentrancy proof.
package stethoscope

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stethoscope/internal/engine"
	"stethoscope/internal/mal"
	"stethoscope/internal/metrics"
	"stethoscope/internal/tpch"
)

// TestMetricsCountersAfterExec checks that one materialized execution
// (and one drained stream) moves every layer's counters: engine
// runs/instructions, plan cache, and the query latency histogram.
func TestMetricsCountersAfterExec(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const q = "select l_tax from lineitem where l_partkey=1"
	for i := 0; i < 2; i++ {
		if _, err := db.Exec(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.Stream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for it.Next() {
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}

	snap := db.Metrics()
	for _, name := range []string{
		"stetho_engine_runs_total",
		"stetho_plancache_misses_total",
		"stetho_plancache_hits_total",
		"stetho_plancache_bytes",
	} {
		if snap.Value(name) < 1 {
			t.Errorf("%s = %d after two Execs, want >= 1", name, snap.Value(name))
		}
	}
	if got := snap.Value("stetho_engine_runs_total"); got < 3 {
		t.Errorf("engine runs = %d after two Execs and a Stream, want >= 3", got)
	}
	if instr, _ := snap.Get("stetho_engine_instr_duration_us"); instr.Count < 1 {
		t.Errorf("instruction duration histogram = %+v after two Execs, want >= 1 observation", instr)
	}
	lat, ok := snap.Get("stetho_query_latency_us")
	if !ok || lat.Kind != metrics.KindHistogram || lat.Count < 3 {
		t.Errorf("latency histogram sample = %+v, want >= 3 observations", lat)
	}
	if snap.Value("stetho_engine_queries_inflight") != 0 {
		t.Errorf("queries_inflight = %d at rest", snap.Value("stetho_engine_queries_inflight"))
	}

	// The Prometheus rendering carries the same families.
	var sb strings.Builder
	if err := db.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if strings.Contains(text, "morsel") {
		t.Errorf("Prometheus text names a morsel metric:\n%s", text)
	}
	for _, want := range []string{
		"# TYPE stetho_engine_runs_total counter",
		"stetho_engine_worker_instructions_total{worker=\"0\"}",
		"stetho_query_latency_us_bucket{le=\"+Inf\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus text missing %q", want)
		}
	}
}

// TestProgressMidQuery holds a streaming run in flight (the unbuffered
// emit channel blocks the producer on its first slice until the
// consumer drains) and samples DB.Progress while draining: the run must
// be visible mid-query with instructions still to run, the instruction
// count must be monotonically non-decreasing, and the table must empty
// out once the run completes.
func TestProgressMidQuery(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const q = "select l_orderkey from lineitem where l_quantity >= 0"
	// Four slices of ~6k lineitem rows: the result streams slice by
	// slice.
	it, err := db.Stream(ctx, q, ExecPartitions(4), ExecWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	// The producer is parked on its first emit until we start pulling
	// rows, so the run is observable mid-flight once it registers and
	// finishes its first instruction.
	var mid *QueryProgress
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if prog := db.Progress(); len(prog) == 1 {
			mid = &prog[0]
			if mid.InstrDone > 0 {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	if mid == nil {
		t.Fatal("in-flight streaming run never appeared in DB.Progress")
	}
	if mid.Label != q {
		t.Fatalf("progress label = %q, want the SQL text", mid.Label)
	}
	if mid.InstrDone <= 0 || mid.InstrDone >= mid.InstrTotal {
		t.Fatalf("run not observed mid-query: %+v", *mid)
	}

	last := *mid
	rows := 0
	for it.Next() {
		rows++
		if rows%200 != 0 {
			continue
		}
		for _, p := range db.Progress() {
			if p.ID != last.ID {
				continue
			}
			if p.InstrDone < last.InstrDone || p.InstrDone > p.InstrTotal {
				t.Fatalf("progress went backwards: %+v then %+v", last, p)
			}
			if f := p.Fraction(); f < 0 || f > 1 {
				t.Fatalf("fraction out of range: %v", f)
			}
			last = p
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("streaming run yielded no rows")
	}
	if prog := db.Progress(); len(prog) != 0 {
		t.Fatalf("progress table leaked %d entries after completion", len(prog))
	}
}

// TestMetricsHTTPEndpoint opts into the observability endpoint and hits
// all three surfaces: Prometheus /metrics, JSON /progress, and the
// pprof index.
func TestMetricsHTTPEndpoint(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001), WithMetricsAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(context.Background(), "select count(*) from lineitem"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + db.MetricsAddr()

	get := func(path string) (string, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "0.0.4") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	if !strings.Contains(body, "stetho_engine_runs_total") {
		t.Errorf("/metrics body missing engine counters:\n%s", body)
	}

	body, ctype = get("/progress")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/progress content type = %q", ctype)
	}
	var runs []map[string]any
	if err := json.Unmarshal([]byte(body), &runs); err != nil {
		t.Errorf("/progress is not a JSON array: %v (%s)", err, body)
	}
	if len(runs) != 0 {
		t.Errorf("/progress reported %d runs on an idle DB", len(runs))
	}

	if body, _ = get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index looks wrong:\n%.200s", body)
	}
}

// TestMetricsAddrInUse: a bad metrics address must fail Open cleanly,
// not leak the half-built DB.
func TestMetricsAddrInUse(t *testing.T) {
	if _, err := Open(WithScaleFactor(0.001), WithMetricsAddr("256.0.0.1:bogus")); err == nil {
		t.Fatal("Open with an unusable metrics address should fail")
	}
}

// TestProgressWireCommand serves the DB over TCP and observes an
// in-flight streaming run through the PROGRESS wire command — the
// server shares the DB's engine, so its progress table is the same one.
// METRICS and STATS ride the same connection.
func TestProgressWireCommand(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	srv, err := db.Serve(ctx, "progress-test", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Hold a streaming run mid-emit: its producer blocks on the
	// unbuffered channel until the iterator drains.
	const q = "select l_orderkey from lineitem where l_quantity >= 0"
	it, err := db.Stream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	var line string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		lines, err := r.Progress()
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) == 1 {
			line = lines[0]
			break
		}
		time.Sleep(time.Millisecond)
	}
	if line == "" {
		t.Fatal("PROGRESS never showed the in-flight run")
	}
	for _, field := range []string{"id=", "fraction=", "instr_done=", "instr_total=", "sql="} {
		if !strings.Contains(line, field) {
			t.Errorf("PROGRESS line missing %s: %q", field, line)
		}
	}
	if strings.Contains(line, "rows_") || strings.Contains(line, "morsels_") {
		t.Errorf("PROGRESS line carries a removed field: %q", line)
	}
	if !strings.Contains(line, "l_orderkey") {
		t.Errorf("PROGRESS line does not carry the SQL text: %q", line)
	}

	text, err := r.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stetho_engine_runs_total", "stetho_server_commands_total", "stetho_server_sessions_active 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("METRICS missing %q", want)
		}
	}

	stats, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["engine_runs"] < 1 || stats["sessions_total"] < 1 || stats["commands"] < 2 {
		t.Errorf("STATS map = %v", stats)
	}

	// Drain the run; the wire-visible table must empty out.
	for it.Next() {
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if lines, err := r.Progress(); err != nil || len(lines) != 0 {
		t.Errorf("PROGRESS after completion = %v, %v", lines, err)
	}
}

// TestStressMetricsReaders runs Exec traffic concurrently with
// Metrics/Progress/Stats snapshot readers. Under -race (the CI race job
// runs this file) it is the proof that the observability surface is
// safe to poll while the engine is hot.
func TestStressMetricsReaders(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := []string{
		"select l_tax from lineitem where l_partkey=1",
		"select count(*) from lineitem",
		"select l_orderkey from lineitem where l_quantity > 30",
	}

	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 6; i++ {
				q := queries[(g+i)%len(queries)]
				if _, err := db.Exec(ctx, q, ExecWorkers(1+(g+i)%4)); err != nil {
					errs <- fmt.Errorf("exec %q: %w", q, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				snap := db.Metrics()
				if snap.Value("stetho_engine_runs_total") < 0 {
					errs <- fmt.Errorf("negative run counter")
					return
				}
				for _, p := range db.Progress() {
					if f := p.Fraction(); f < 0 || f > 1 {
						errs <- fmt.Errorf("fraction out of range: %v", f)
						return
					}
				}
				_ = db.Stats()
				var sb strings.Builder
				if err := db.WriteMetrics(&sb); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Identical concurrent statements share work: every Exec completes
	// (leader or attached), but only flight leaders run the engine.
	st := db.Stats()
	if st.Execs != 8*6 {
		t.Errorf("execs = %d, want %d", st.Execs, 8*6)
	}
	if st.SharedLed+st.SharedAttached != 8*6 {
		t.Errorf("led %d + attached %d = %d, want %d", st.SharedLed, st.SharedAttached,
			st.SharedLed+st.SharedAttached, 8*6)
	}
	if got := db.Metrics().Value("stetho_engine_runs_total"); got != st.SharedLed {
		t.Errorf("engine runs = %d, want one per flight leader (%d)", got, st.SharedLed)
	}
	if len(db.Progress()) != 0 {
		t.Error("progress table not empty after all runs returned")
	}
}

// TestIntermediateGauges runs the analytic statements (the adapted
// TPC-H set and the point filter) on two connections at once, reading
// the engine's two memory gauges whenever a run exports a result column
// — mid-run, with its earlier intermediates released: the free list
// holds some of them and never more than its 2 MiB bound (recycleBytes,
// internal/storage/recycle.go). With no run in flight neither an
// intermediate nor the free list holds a byte.
func TestIntermediateGauges(t *testing.T) {
	const bound = 2 << 20
	db, err := Open(WithScaleFactor(0.01), WithPartitions(8), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var (
		mu       sync.Mutex
		most     int64 // guarded by mu
		rsColumn engine.Kernel
	)
	rsColumn = db.run.Engine.Replace("sql", "rsColumn", func(ctx *engine.Context, in *mal.Instr) error {
		v := db.Metrics().Value("stetho_engine_recycled_bytes")
		mu.Lock()
		most = max(most, v)
		mu.Unlock()
		return rsColumn(ctx, in)
	})
	stmts := []string{"select l_tax from lineitem where l_orderkey=7"}
	for _, q := range tpch.Queries() {
		stmts = append(stmts, q.SQL)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range stmts {
					if _, err := db.Exec(ctx, stmts[(i+c*len(stmts)/2)%len(stmts)]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if most <= 0 || most > bound {
		t.Errorf("free list held at most %d bytes when runs exported results, want some and at most %d", most, bound)
	}
	snap := db.Metrics()
	for _, name := range []string{"stetho_engine_intermediate_bytes", "stetho_engine_recycled_bytes"} {
		if got := snap.Value(name); got != 0 {
			t.Errorf("%s = %d with no run in flight, want 0", name, got)
		}
	}
}

// TestTemplateHitVisible pins how a plan instantiated from a template
// shows: a statement that differs from an earlier one only in a literal
// misses the plan cache and hits the template table, and says so in
// Result.Stats (Instantiated, not CacheHit), in the history's RunInfo,
// in DB.Stats and in the stetho_plantemplate metrics; its exact repeat
// is a plain plan-cache hit.
func TestTemplateHitVisible(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001), WithHistory(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	for i, step := range []struct {
		sql                    string
		cacheHit, instantiated bool
	}{
		{"select l_tax from lineitem where l_partkey=1", false, false},
		{"select l_tax from lineitem where l_partkey=2", false, true},
		{"select l_tax from lineitem where l_partkey=2", true, false},
	} {
		res, err := db.Exec(ctx, step.sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CacheHit != step.cacheHit || res.Stats.Instantiated != step.instantiated {
			t.Errorf("statement %d: CacheHit %t Instantiated %t, want %t %t", i,
				res.Stats.CacheHit, res.Stats.Instantiated, step.cacheHit, step.instantiated)
		}
		run, err := db.History().Get(res.Stats.RunID)
		if err != nil {
			t.Fatal(err)
		}
		if run.Info.CacheHit != step.cacheHit || run.Info.Instantiated != step.instantiated {
			t.Errorf("statement %d: history records CacheHit %t Instantiated %t, want %t %t", i,
				run.Info.CacheHit, run.Info.Instantiated, step.cacheHit, step.instantiated)
		}
	}
	if st := db.Stats(); st.Templates.Hits != 1 || st.Templates.Misses != 1 || st.Templates.Len != 1 ||
		st.Cache.Hits != 1 || st.Cache.Misses != 2 {
		t.Errorf("DB.Stats: plan cache %+v, templates %+v; want 1 hit 2 misses, 1 template hit 1 miss", st.Cache, st.Templates)
	}
	snap := db.Metrics()
	for name, want := range map[string]int64{
		"stetho_plantemplate_hits_total":      1,
		"stetho_plantemplate_misses_total":    1,
		"stetho_plantemplate_evictions_total": 0,
		"stetho_plantemplate_entries":         1,
	} {
		if got := snap.Value(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
