package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	wl           *workload
	seed         int64
	warmup       time.Duration // fills the plan cache and forces lazy table materialisation; not measured
	measure      time.Duration // the measured window
	setups       int           // times set-up is repeated; setup_s is their median
	traced       bool          // follow the measured pass with the traced pass
	tracedBudget time.Duration // wall-clock cap of the traced pass
	outDir       string        // scratch directories and trace files go here

	// The tests' knobs: smaller datasets, fewer traced ops, an oracle with
	// every second reference damaged.
	sfScale     float64
	tracedLimit int
	corrupt     bool
}

func (c runConfig) sf() float64 {
	if c.sfScale > 0 {
		return c.wl.sf * c.sfScale
	}
	return c.wl.sf
}

func (c runConfig) tracedOps() int {
	if c.tracedLimit > 0 {
		return c.tracedLimit
	}
	return c.wl.tracedOps
}

// runResult is what one run reports.
type runResult struct {
	Workload  string
	Ops       int // latency samples in the measured window
	Attempted int
	Failed    int
	Errors    []string           // the first few failures, for the human reader
	EndToEnd  map[string]float64 // from the untraced pass only, at nominal box speed
	Raw       map[string]float64 // the same as the clock saw them
	PerLayer  map[string]float64 // nil unless traced
}

// connections is the closed loop's width: one connection per processor,
// never more, so the load generator does not compete with itself.
func connections() int {
	return max(1, min(runtime.NumCPU(), runtime.GOMAXPROCS(0)))
}

// scratchDir names a fresh directory under outDir for one child. Children
// are started one after another, so the clock tells them apart.
func scratchDir(outDir string) string {
	return filepath.Join(outDir, fmt.Sprintf("tmp-%d", time.Now().UnixNano()))
}

// opSample is one op that began and ended inside the measured window.
type opSample struct {
	latMs, ttfbMs float64
	bytes         int
}

// loadResult is what one connection saw.
type loadResult struct {
	ops               []opSample
	attempted, failed int
	errs              []string
	rechecks          []recheck
	err               error // transport failure: the connection is gone
}

// recheck is an ad-hoc statement to run again, sequentially, after the
// window.
type recheck struct {
	stmt string
	sum  digest
}

func (r *loadResult) fail(msg string) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, msg)
	}
}

// record files one answered command. An op counts as attempted when it
// began inside the window; a failure counts whenever it happened.
func (r *loadResult) record(t0 time.Time, rep reply, origin, end time.Time, bad string) {
	began := !t0.Before(origin) && t0.Before(end)
	if began || bad != "" {
		r.attempted++
	}
	if bad != "" {
		r.fail(bad)
		return
	}
	if began && !t0.Add(rep.total).After(end) {
		r.ops = append(r.ops, opSample{ms(rep.total), ms(rep.ttfb), rep.bytes})
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// queryLoop is one closed-loop connection: the next QUERY goes out only
// after the previous reply's terminator has been read.
func queryLoop(ctx context.Context, c *client, st stream, ora oracle, origin, end time.Time, res *loadResult) {
	for i := 0; ctx.Err() == nil; i++ {
		t0 := time.Now()
		if !t0.Before(end) {
			return
		}
		stmt := st.next()
		rep, err := c.do("QUERY "+stmt, nil)
		if err != nil {
			res.err = fmt.Errorf("QUERY %s: %w", stmt, err)
			return
		}
		bad := rep.err
		if bad == "" && ora != nil {
			if want, ok := ora[stmt]; !ok || want != rep.sum {
				bad = "reply differs from the sequential reference: " + stmt
			}
		}
		if bad == "" && ora == nil && i%16 == 0 && !t0.Before(origin) {
			res.rechecks = append(res.rechecks, recheck{stmt, rep.sum})
		}
		res.record(t0, rep, origin, end, bad)
	}
}

// readerLoop is serve-history's second connection: it rotates the history
// read commands over the runs the first connection is recording, with 10 ms
// of think time between commands.
func readerLoop(ctx context.Context, c *client, origin, end time.Time, res *loadResult) {
	// Runs seen in LIST replies: per statement the two most recent ids.
	bySQL := map[string][2]uint64{}
	var newest uint64
	sawRun := func(line []byte) {
		s := string(line)
		id, err := strconv.ParseUint(field(s, "id="), 10, 64)
		if err != nil || field(s, "complete=") != "true" {
			return
		}
		newest = max(newest, id)
		sql := s[strings.Index(s, "sql=")+4:]
		if i := strings.Index(sql, " err="); i >= 0 {
			sql = sql[:i]
		}
		if p := bySQL[sql]; id > p[1] {
			bySQL[sql] = [2]uint64{p[1], id}
		}
	}
	for i := 0; ctx.Err() == nil; i++ {
		t0 := time.Now()
		if !t0.Before(end) {
			return
		}
		cmd, each := "HISTORY LIST 20", sawRun
		switch i % 4 {
		case 1:
			cmd, each = "HISTORY TOP 10", nil
		case 2:
			if newest > 0 {
				cmd, each = fmt.Sprintf("HISTORY TRACE %d", newest), nil
			}
		case 3:
			// The youngest pair of runs of one statement. Retention drops
			// whole old segments, so only recent ids are safe to name.
			var a, b uint64
			for _, p := range bySQL {
				if p[0] > a {
					a, b = p[0], p[1]
				}
			}
			if a > 0 && a+64 > newest {
				cmd, each = fmt.Sprintf("HISTORY DIFF %d %d", a, b), nil
			}
		}
		rep, err := c.do(cmd, each)
		if err != nil {
			res.err = fmt.Errorf("%s: %w", cmd, err)
			return
		}
		bad := rep.err
		if bad != "" {
			bad = cmd + ": " + bad
		}
		res.record(t0, rep, origin, end, bad)
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// field returns the value of a k=v field of a space-separated line.
func field(line, key string) string {
	i := strings.Index(line, key)
	if i < 0 {
		return ""
	}
	v := line[i+len(key):]
	if j := strings.IndexByte(v, ' '); j >= 0 {
		v = v[:j]
	}
	return v
}

// sleepUntil waits for t or for ctx to end.
func sleepUntil(ctx context.Context, t time.Time) {
	select {
	case <-ctx.Done():
	case <-time.After(time.Until(t)):
	}
}

// served is one set-up serve workload: the child, the sequential reference
// connection (which doubles as the control connection for STATS) and the
// load connections.
type served struct {
	child  *child
	ref    *client
	conns  []*client
	reader *client // serve-history's second connection
	ora    oracle  // nil for an ad-hoc workload
}

func (s *served) close() {
	for _, c := range append(s.conns, s.ref, s.reader) {
		if c != nil {
			c.close()
		}
	}
	s.child.stop()
}

// setupServe brings a serve workload to the point where the first warm-up
// op could be sent: the child generates (or persists and reopens) the
// dataset and listens, every connection is dialled and configured, and the
// reference connection has executed every pool statement once.
func setupServe(ctx context.Context, cfg runConfig, nconn int) (*served, error) {
	wl := cfg.wl
	ch, err := startChild(ctx, childSpec{Role: "server", Workload: wl.name, SF: cfg.sf(), Tmp: scratchDir(cfg.outDir)})
	if err != nil {
		return nil, err
	}
	s := &served{child: ch}
	open := func(extra ...string) (*client, error) {
		c, err := dial(ch.ready.Addr)
		if err != nil {
			return nil, err
		}
		for _, cmd := range append(wl.session(), extra...) {
			if err := c.set(cmd); err != nil {
				c.close()
				return nil, err
			}
		}
		return c, nil
	}
	fail := func(err error) (*served, error) {
		s.close()
		return nil, err
	}
	if s.ref, err = open("SET workers 1"); err != nil {
		return fail(err)
	}
	for i := 0; i < nconn; i++ {
		c, err := open()
		if err != nil {
			return fail(err)
		}
		s.conns = append(s.conns, c)
	}
	if wl.history {
		if s.reader, err = open(); err != nil {
			return fail(err)
		}
	}
	if pool := wl.pool(cfg.seed); pool != nil {
		s.ora = oracle{}
		for i, stmt := range pool {
			rep, err := s.ref.do("QUERY "+stmt, nil)
			if err == nil && rep.err != "" {
				err = errors.New(rep.err)
			}
			if err != nil {
				return fail(fmt.Errorf("reference %s: %w", stmt, err))
			}
			if cfg.corrupt && i%2 == 1 {
				rep.sum[0] ^= 0xff
			}
			s.ora[stmt] = rep.sum
		}
	}
	return s, nil
}

// runWorkload runs set-up (cfg.setups times), warm-up, the measured window
// and, when asked, the traced pass.
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	if cfg.wl.analyze {
		return runAnalyze(ctx, cfg)
	}
	return runServe(ctx, cfg)
}

// setupTimes collects the repetitions of set-up.
type setupTimes struct {
	began time.Time // when the first one started
	raw   []float64 // seconds each took, as the clock saw them
}

// more reports whether set-up should run again: cfg.setups times at least,
// and until set-up has taken a second in all (at most 15 times), because a
// set-up of 20 ms is mostly process start-up jitter and needs more
// repetitions for its median to hold still.
func (st *setupTimes) more(cfg runConfig) bool {
	var total float64
	for _, s := range st.raw {
		total += s
	}
	n := len(st.raw)
	return n < cfg.setups || (cfg.setups > 1 && total < 1 && n < 15)
}

func (st *setupTimes) add(t0 time.Time) {
	if st.began.IsZero() {
		st.began = t0
	}
	st.raw = append(st.raw, time.Since(t0).Seconds())
}

func runServe(ctx context.Context, cfg runConfig) (*runResult, error) {
	wl := cfg.wl
	nconn := connections()
	if wl.history {
		nconn = 1 // connection 0 writes the history, the reader is the second connection
	}
	cal := startCalibrator()
	defer cal.close()
	var setups setupTimes
	var srv *served
	for setups.more(cfg) {
		if srv != nil {
			srv.close()
		}
		t0 := time.Now()
		var err error
		if srv, err = setupServe(ctx, cfg, nconn); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups.add(t0)
	}
	defer srv.close()
	setupBox := cal.speed(setups.began, time.Now())

	origin := time.Now().Add(cfg.warmup)
	end := origin.Add(cfg.measure)
	loads := make([]loadResult, nconn)
	var reads loadResult
	var wg sync.WaitGroup
	for i, c := range srv.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			queryLoop(ctx, c, wl.stream(cfg.seed, i, nconn), srv.ora, origin, end, &loads[i])
		}()
	}
	if srv.reader != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readerLoop(ctx, srv.reader, origin, end, &reads)
		}()
	}
	// This goroutine reads the child's counters at the window's edges.
	pid := srv.child.pid()
	sleepUntil(ctx, origin)
	stats0, err0 := srv.ref.stats()
	cpu, err1 := watchCPU(ctx, pid, origin, end)
	hwmKB, err2 := procStatusKB(pid, "VmHWM")
	stats1, err3 := srv.ref.stats()
	wg.Wait()
	if err := errors.Join(ctx.Err(), err0, err1, err2, err3, reads.err); err != nil {
		return nil, err
	}

	res := &runResult{Workload: wl.name}
	win := window{seconds: cfg.measure.Seconds(), cpu: cpu, hwmKB: hwmKB, box: cal.speed(origin, end)}
	for i := range loads {
		l := &loads[i]
		if l.err != nil {
			return nil, l.err
		}
		// Ad-hoc statements have no reference yet: every 16th is run
		// again on the sequential connection, now that the window is over.
		for _, rc := range l.rechecks {
			l.attempted++
			rep, err := srv.ref.do("QUERY "+rc.stmt, nil)
			if err != nil {
				return nil, err
			}
			if cfg.corrupt {
				rc.sum[0] ^= 0xff
			}
			if rep.err != "" || rep.sum != rc.sum {
				l.fail("reply differs from the sequential re-run: " + rc.stmt)
			}
		}
		win.ops = append(win.ops, l.ops...)
		res.Attempted += l.attempted
		res.Failed += l.failed
		res.Errors = append(res.Errors, l.errs...)
	}
	res.Attempted += reads.attempted
	res.Failed += reads.failed
	res.Errors = append(res.Errors, reads.errs...)
	if res.Ops = len(win.ops); res.Ops == 0 {
		return nil, fmt.Errorf("no op completed inside the %v window", cfg.measure)
	}
	res.Raw = win.rawEndToEnd(setups.raw)
	res.EndToEnd = win.endToEnd(setups.raw, setupBox)
	if !cfg.traced {
		return res, nil
	}

	var cs childStats
	if err := srv.child.ask(ctx, "stats", &cs); err != nil {
		return nil, err
	}
	tr := newTracer()
	layers, pathUs, err := tracedServe(ctx, cfg, nconn, filepath.Join(srv.child.tmp, "dataset"), filepath.Join(srv.child.tmp, "traced"), tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+wl.name+".json"), wl, cfg.seed); err != nil {
		return nil, err
	}
	delta := func(k string) float64 { return stats1[k] - stats0[k] }
	layers["plancache.hit_ratio"] = ratio(delta("cache_hits"), delta("cache_hits")+delta("cache_misses"))
	layers["plancache.evictions"] = delta("cache_evictions")
	layers["sharedwork.attached_ratio"] = ratio(delta("sharedwork_attached"), delta("sharedwork_led")+delta("sharedwork_attached"))
	layers["resultcache.hit_ratio"] = ratio(delta("resultcache_hits"), delta("resultcache_hits")+delta("resultcache_misses"))
	layers["engine.steals_per_op"] = ratio(delta("engine_steals"), delta("engine_runs"))
	layers["engine.parks_per_op"] = ratio(delta("engine_parks"), delta("engine_runs"))
	var ttfb, drain []float64
	for _, o := range win.ops {
		ttfb, drain = append(ttfb, o.ttfbMs), append(drain, o.latMs-o.ttfbMs)
	}
	readMs := window{ops: reads.ops}.latencies()
	layers["wire.ttfb_ms"] = median(ttfb)
	layers["wire.drain_ms"] = median(drain)
	layers["tracestore.read_p50_ms"] = median(readMs)
	layers["tracestore.read_p95_ms"] = quantile(readMs, 0.95)
	layers["tracestore.segments"] = float64(cs.HistorySegments)
	layers["tracestore.compactions"] = float64(cs.Compactions)
	for k, v := range srv.child.ready.Phases {
		layers[k] = v
	}
	// What the socket, the session loop and the other connection's
	// competition add to the in-process path.
	layers["wire.other_us"] = res.Raw["latency_p50_ms"]*1e3 - pathUs
	res.PerLayer = harnessLayers(layers, win, res.Raw, pathUs)
	return res, nil
}

// harnessLayers adds the per-layer metrics every workload has: the tail the
// client saw, the traced path against the measured latency, and the box.
// Layer metrics are as the clock saw them, so they compare with the raw
// latency, not the scaled one.
func harnessLayers(layers map[string]float64, win window, raw map[string]float64, pathUs float64) map[string]float64 {
	layers["client.latency_p99_ms"] = quantile(win.latencies(), 0.99)
	layers["client.latency_raw_p50_ms"] = raw["latency_p50_ms"]
	layers["trace.overhead_ratio"] = ratio(pathUs, raw["latency_p50_ms"]*1e3)
	layers["box.kernel_ms"] = win.box.kernelMs
	layers["box.time_scale"] = win.box.scale
	return layers
}

func runAnalyze(ctx context.Context, cfg runConfig) (*runResult, error) {
	wl := cfg.wl
	cal := startCalibrator()
	defer cal.close()
	var setups setupTimes
	var ch *child
	for setups.more(cfg) {
		if ch != nil {
			ch.stop()
		}
		t0 := time.Now()
		var err error
		ch, err = startChild(ctx, childSpec{Role: "analyze", Workload: wl.name, SF: cfg.sf(), Seed: cfg.seed,
			Tmp: scratchDir(cfg.outDir), Corrupt: cfg.corrupt})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups.add(t0)
	}
	defer ch.stop()
	setupBox := cal.speed(setups.began, time.Now())
	var warm, run analyzeRun
	if err := ch.ask(ctx, fmt.Sprintf("run %g", cfg.warmup.Seconds()), &warm); err != nil {
		return nil, err
	}
	// The child times its own ops and stops after the one that crosses the
	// deadline; the window is as long as that took.
	origin := time.Now()
	cpu0, err0 := procCPU(ch.pid())
	if err := ch.ask(ctx, fmt.Sprintf("run %g", cfg.measure.Seconds()), &run); err != nil {
		return nil, err
	}
	end := time.Now()
	cpu1, err1 := procCPU(ch.pid())
	hwmKB, err2 := procStatusKB(ch.pid(), "VmHWM")
	if err := errors.Join(err0, err1, err2); err != nil {
		return nil, err
	}
	res := &runResult{Workload: wl.name, Ops: len(run.LatNs), Attempted: len(run.LatNs) + warm.Failed,
		Failed: run.Failed + warm.Failed, Errors: append(warm.Errs, run.Errs...)}
	if res.Ops == 0 {
		return nil, fmt.Errorf("no op completed inside the %v window", cfg.measure)
	}
	win := window{seconds: float64(run.ElapsedNs) / 1e9, cpu: cpu1 - cpu0, hwmKB: hwmKB, box: cal.speed(origin, end)}
	for i, ns := range run.LatNs {
		win.ops = append(win.ops, opSample{latMs: float64(ns) / 1e6, bytes: run.Bytes[i]})
	}
	res.Raw = win.rawEndToEnd(setups.raw)
	res.EndToEnd = win.endToEnd(setups.raw, setupBox)
	if !cfg.traced {
		return res, nil
	}
	pairs, err := makePairs(cfg.sf(), cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	tr := newTracer()
	layers, pathUs, err := tracedAnalyze(ctx, cfg, pairs, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+wl.name+".json"), wl, cfg.seed); err != nil {
		return nil, err
	}
	res.PerLayer = harnessLayers(layers, win, res.Raw, pathUs)
	return res, nil
}
