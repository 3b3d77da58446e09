// Package server implements the Mserver front-end of the reproduction:
// "Mserver is the MonetDB database server ... It listens for the incoming
// client connections on user defined ports. Stethoscope connects to
// Mserver as a client." (paper §3). The protocol is line-oriented over
// TCP: clients set execution options, point the profiler's UDP stream at
// a textual Stethoscope, and submit queries; plan dot files are emitted
// over the UDP stream before execution begins, exactly as §4.2 describes.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"stethoscope/internal/adaptive"
	"stethoscope/internal/algebra"
	"stethoscope/internal/engine"
	"stethoscope/internal/metrics"
	"stethoscope/internal/netproto"
	"stethoscope/internal/profiler"
	"stethoscope/internal/runner"
	"stethoscope/internal/sql"
	"stethoscope/internal/tracestore"
)

// Server wraps a run service behind the TCP command protocol. Sessions
// run concurrently — each accepted connection gets its own goroutine
// and its own execution settings — against the runner's shared engine,
// compiled-plan cache and shared-work state, so one client's statements
// warm the cache for every other client and for the in-process callers
// of the same runner.
type Server struct {
	Name string
	run  *runner.Runner

	// The server-layer cells, homed in the runner's registry so the
	// METRICS command and the HTTP endpoint expose one unified set.
	sessionsTotal  *metrics.Counter
	sessionsActive *metrics.Gauge
	commands       *metrics.Counter
	bytesOut       *metrics.Counter
	encodeUs       *metrics.Histogram // the wire-encode hop of every QUERY reply
	resultBytes    *metrics.Counter

	// ctx is the server lifetime: every session's context derives from
	// it, so Close (or cancellation of the parent context) aborts
	// in-flight executions.
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	ln    net.Listener
	lnErr error
	wg    sync.WaitGroup
}

// New creates a server over the run service whose lifetime is bounded
// by ctx: when ctx is canceled the listener shuts down and running
// queries are aborted. Everything the sessions share — engine, caches,
// history, metrics registry — is the runner's; runner.New holds the
// defaults.
func New(ctx context.Context, name string, run *runner.Runner) *Server {
	ctx, cancel := context.WithCancel(ctx)
	reg := run.Registry
	return &Server{
		Name:           name,
		run:            run,
		sessionsTotal:  reg.Counter("stetho_server_sessions_total"),
		sessionsActive: reg.Gauge("stetho_server_sessions_active"),
		commands:       reg.Counter("stetho_server_commands_total"),
		bytesOut:       reg.Counter("stetho_server_bytes_written_total"),
		encodeUs:       reg.Histogram("stetho_server_encode_us", nil),
		resultBytes:    reg.Counter("stetho_server_result_bytes_total"),
		ctx:            ctx,
		cancel:         cancel,
	}
}

// Listen binds the TCP port ("127.0.0.1:0" picks a free one) and serves
// until Close.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-s.ctx.Done()
		err := ln.Close()
		s.mu.Lock()
		if s.lnErr == nil {
			s.lnErr = err
		}
		s.mu.Unlock()
	}()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.handle(conn)
			}()
		}
	}()
	return nil
}

// Addr returns the bound TCP address.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops accepting, aborts running queries, and waits for in-flight
// connections. Closing the listener is delegated to the context watcher
// that Listen installs; its error is propagated here.
func (s *Server) Close() error {
	s.cancel()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lnErr
}

// session is per-connection state: execution settings, filter, and the
// profiler stream are isolated per client; everything behind the runner
// is shared with every other session. Sessions default to adaptive
// parallel execution (partitions and workers auto): fan-out is sized
// per query from the scanned tables and the core count; SET pins either
// setting explicitly.
type session struct {
	srv *Server
	// ctx is the session lifetime: derived from the server context and
	// canceled when the connection handler returns. QUERY executes under
	// it, so a shared run led by a session that went away is re-run by
	// its live followers instead of failing them.
	ctx      context.Context
	settings runner.Settings
	// resultcache opts this session's QUERYs into the server's shared
	// result cache (on by default; meaningful only when the server has
	// one). "SET resultcache off" forces fresh execution — the escape
	// hatch for a client that must observe current timing, not a reused
	// outcome. In-flight sharing is not affected: identical concurrent
	// statements always dedupe.
	resultcache bool
	filter      profiler.Filter
	streamer    *netproto.UDPStreamer
	batcher     *profiler.Batcher
}

// traceBatch configures the per-session event batching on the UDP
// trace path: events coalesce into multi-event datagrams of up to
// traceBatchSize events, with a periodic flush so a stalled query still
// streams.
const (
	traceBatchSize  = 64
	traceFlushEvery = 2 * time.Millisecond
)

// closeStream tears the session's trace stream down in pipeline order.
func (sess *session) closeStream() {
	if sess.batcher != nil {
		sess.batcher.Close()
		sess.batcher = nil
	}
	if sess.streamer != nil {
		sess.streamer.Close()
		sess.streamer = nil
	}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	// The session context ends with the server or with this handler,
	// whichever comes first, and takes the connection with it. That
	// unblocks the read loop when the server shuts down: without it,
	// Close would wait forever on a handler parked in sc.Scan for an
	// idle client. Closing a net.Conn twice is safe.
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	go func() {
		<-ctx.Done()
		conn.Close()
	}()
	s.sessionsTotal.Inc()
	s.sessionsActive.Add(1)
	defer s.sessionsActive.Add(-1)
	sess := &session{srv: s, ctx: ctx, resultcache: true,
		settings: runner.Settings{Partitions: adaptive.Auto, Workers: adaptive.Auto}}
	defer func() { sess.closeStream() }()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	w := bufio.NewWriter(&countingWriter{w: conn, n: s.bytesOut})
	fmt.Fprintf(w, "ok stethoscope-mserver %s\n", s.Name)
	if w.Flush() != nil {
		return
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "quit") {
			fmt.Fprintln(w, "ok bye")
			w.Flush()
			return
		}
		sess.dispatch(w, line)
		// A reply that could not be written means the client is gone:
		// end the session instead of waiting for its next command.
		if w.Flush() != nil {
			return
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		fmt.Fprintf(w, "err line too long (max %d MiB)\n", maxLineBytes>>20)
		w.Flush()
	}
}

// maxLineBytes caps one command line; a longer one ends the session
// with an error reply.
const maxLineBytes = 1 << 20

// countingWriter counts bytes on their way to the connection — the
// stetho_server_bytes_written_total source, placed under the bufio
// layer so it costs one atomic add per flush, not per write.
type countingWriter struct {
	w io.Writer
	n *metrics.Counter
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (sess *session) dispatch(w *bufio.Writer, line string) {
	sess.srv.commands.Inc()
	cmd, rest := line, ""
	if i := strings.IndexByte(line, ' '); i >= 0 {
		cmd, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	switch strings.ToUpper(cmd) {
	case "SET":
		sess.cmdSet(w, rest)
	case "TRACE":
		sess.cmdTrace(w, rest)
	case "FILTER":
		sess.cmdFilter(w, rest)
	case "EXPLAIN":
		sess.cmdExplain(w, rest)
	case "ALGEBRA":
		sess.cmdAlgebra(w, rest)
	case "DOT":
		sess.cmdDot(w, rest)
	case "QUERY":
		sess.cmdQuery(w, rest)
	case "HISTORY":
		sess.cmdHistory(w, rest)
	case "STATS":
		sess.cmdStats(w)
	case "METRICS":
		fmt.Fprintln(w, "ok")
		sess.srv.run.Registry.WritePrometheus(w)
		fmt.Fprintln(w, ".")
	case "PROGRESS":
		fmt.Fprintln(w, "ok")
		for _, p := range sess.srv.run.Engine.Progress() {
			fmt.Fprintf(w, "id=%d elapsed_us=%d fraction=%.4f instr_done=%d instr_total=%d rows_scanned=%d rows_total=%d morsels_done=%d morsels_total=%d sql=%s\n",
				p.ID, p.Elapsed.Microseconds(), p.Fraction(),
				p.InstrDone, p.InstrTotal, p.RowsScanned, p.RowsTotal,
				p.MorselsDone, p.MorselsTotal, strconv.Quote(p.Label))
		}
		fmt.Fprintln(w, ".")
	case "TABLES":
		fmt.Fprintln(w, "ok")
		for _, t := range sess.srv.run.Engine.Catalog().TableNames() {
			fmt.Fprintln(w, t)
		}
		fmt.Fprintln(w, ".")
	default:
		fmt.Fprintf(w, "err unknown command %q\n", cmd)
	}
}

// cmdStats renders the serving counters: the plan-cache line the
// command always carried, plus a scheduler/morsel line, a server line
// drawn from the metrics registry, and a shared-work line
// (single-flight leads/attaches, result-cache effectiveness), so
// remote monitors see the engine counters without the HTTP endpoint.
// Clients parse every payload line as flat k=v fields, so added lines
// are backward compatible.
func (sess *session) cmdStats(w *bufio.Writer) {
	st := sess.srv.run.Stats()
	snap := sess.srv.run.Registry.Snapshot()
	fmt.Fprintln(w, "ok")
	fmt.Fprintf(w, "cache_hits=%d cache_misses=%d cache_evictions=%d cache_len=%d cache_cap=%d\n",
		st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, st.Cache.Len, st.Cache.Capacity)
	fmt.Fprintf(w, "engine_runs=%d engine_instructions=%d engine_steals=%d engine_parks=%d engine_queries_inflight=%d morsels_claimed=%d morsel_rows_scanned=%d\n",
		snap.Value("stetho_engine_runs_total"),
		snap.Value("stetho_engine_instructions_total"),
		snap.Value("stetho_engine_steals_total"),
		snap.Value("stetho_engine_parks_total"),
		snap.Value("stetho_engine_queries_inflight"),
		snap.Value("stetho_engine_morsels_claimed_total"),
		snap.Value("stetho_engine_morsel_rows_scanned_total"))
	encode, _ := snap.Get("stetho_server_encode_us")
	fmt.Fprintf(w, "sessions_total=%d sessions_active=%d commands=%d bytes_written=%d result_bytes=%d encode_count=%d encode_us=%d\n",
		snap.Value("stetho_server_sessions_total"),
		snap.Value("stetho_server_sessions_active"),
		snap.Value("stetho_server_commands_total"),
		snap.Value("stetho_server_bytes_written_total"),
		snap.Value("stetho_server_result_bytes_total"),
		encode.Count, encode.Sum)
	rc := st.ResultCache
	fmt.Fprintf(w, "sharedwork_led=%d sharedwork_attached=%d resultcache_hits=%d resultcache_misses=%d resultcache_len=%d resultcache_invalidations=%d\n",
		st.SharedLed, st.SharedAttached, rc.Hits, rc.Misses, rc.Len, rc.Invalidations)
	fmt.Fprintln(w, ".")
}

func (sess *session) cmdSet(w *bufio.Writer, rest string) {
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		fmt.Fprintln(w, "err usage: SET <partitions|workers> <n|auto> / SET resultcache <on|off>")
		return
	}
	// "auto" is the only spelling of adaptive sizing on the wire:
	// numbers below 1 become 1 right here, so no numeric value — not
	// even the one the Go API reserves as the Auto sentinel — can switch
	// a session to adaptive mode by accident. "SET resultcache on|off"
	// is a pure boolean.
	setting, value := strings.ToLower(fields[0]), fields[1]
	if setting == "resultcache" {
		switch strings.ToLower(value) {
		case "on":
			sess.resultcache = true
		case "off":
			sess.resultcache = false
		default:
			fmt.Fprintf(w, "err bad value %q (resultcache wants on or off)\n", value)
			return
		}
		fmt.Fprintln(w, "ok")
		return
	}
	var dst *int
	switch setting {
	case "partitions":
		dst = &sess.settings.Partitions
	case "workers":
		dst = &sess.settings.Workers
	default:
		fmt.Fprintf(w, "err unknown setting %q\n", fields[0])
		return
	}
	n := adaptive.Auto
	if !strings.EqualFold(value, "auto") {
		v, err := strconv.Atoi(value)
		if err != nil {
			fmt.Fprintf(w, "err bad value %q\n", value)
			return
		}
		if n = v; n < 1 {
			n = 1
		}
	}
	*dst = n
	fmt.Fprintln(w, "ok")
}

func (sess *session) cmdTrace(w *bufio.Writer, addr string) {
	if addr == "" {
		fmt.Fprintln(w, "err usage: TRACE <udp host:port>")
		return
	}
	streamer, err := netproto.Dial(addr)
	if err != nil {
		fmt.Fprintf(w, "err %v\n", err)
		return
	}
	sess.closeStream()
	sess.streamer = streamer
	// Events coalesce into multi-event datagrams on their way out — one
	// syscall per batch instead of per event on the hot trace path.
	sess.batcher = profiler.NewBatcher(streamer, traceBatchSize, traceFlushEvery)
	sess.batcher.Instrument(sess.srv.run.Registry)
	streamer.Hello(sess.srv.Name)
	fmt.Fprintln(w, "ok tracing to "+addr)
}

// cmdFilter parses "FILTER states=done modules=algebra,sql mindur=100
// pcs=1,2,3"; an empty rest clears the filter. This is the profiler-side
// filtering the paper's filter-options window drives.
func (sess *session) cmdFilter(w *bufio.Writer, rest string) {
	f := profiler.Filter{}
	for _, field := range strings.Fields(rest) {
		kv := strings.SplitN(field, "=", 2)
		if len(kv) != 2 {
			fmt.Fprintf(w, "err bad filter term %q\n", field)
			return
		}
		switch kv[0] {
		case "states":
			for _, s := range strings.Split(kv[1], ",") {
				st, err := profiler.ParseState(s)
				if err != nil {
					fmt.Fprintf(w, "err %v\n", err)
					return
				}
				f.States = append(f.States, st)
			}
		case "modules":
			f.Modules = strings.Split(kv[1], ",")
		case "mindur":
			n, err := strconv.ParseInt(kv[1], 10, 64)
			if err != nil {
				fmt.Fprintf(w, "err bad mindur %q\n", kv[1])
				return
			}
			f.MinDurUs = n
		case "pcs":
			for _, s := range strings.Split(kv[1], ",") {
				n, err := strconv.Atoi(s)
				if err != nil {
					fmt.Fprintf(w, "err bad pc %q\n", s)
					return
				}
				f.PCs = append(f.PCs, n)
			}
		default:
			fmt.Fprintf(w, "err unknown filter key %q\n", kv[0])
			return
		}
	}
	sess.filter = f
	fmt.Fprintln(w, "ok")
}

// cmdAlgebra prints the bound relational-algebra tree, the stage between
// SQL and MAL (paper §2).
func (sess *session) cmdAlgebra(w *bufio.Writer, query string) {
	stmt, err := sql.Parse(query)
	if err != nil {
		fmt.Fprintf(w, "err %v\n", err)
		return
	}
	tree, err := algebra.Bind(stmt, sess.srv.run.Engine.Catalog())
	if err != nil {
		fmt.Fprintf(w, "err %v\n", err)
		return
	}
	fmt.Fprintln(w, "ok")
	fmt.Fprint(w, algebra.Tree(tree))
	fmt.Fprintln(w, ".")
}

func (sess *session) cmdExplain(w *bufio.Writer, query string) {
	p, err := sess.srv.run.Prepare(query, sess.settings)
	if err != nil {
		fmt.Fprintf(w, "err %v\n", err)
		return
	}
	fmt.Fprintln(w, "ok")
	fmt.Fprint(w, p.Plan.String())
	fmt.Fprintln(w, ".")
}

func (sess *session) cmdDot(w *bufio.Writer, query string) {
	p, err := sess.srv.run.Prepare(query, sess.settings)
	if err != nil {
		fmt.Fprintf(w, "err %v\n", err)
		return
	}
	fmt.Fprintln(w, "ok")
	fmt.Fprint(w, p.Dot())
	fmt.Fprintln(w, ".")
}

// cmdQuery executes one statement through the run service. Sessions
// without a live TRACE stream share work: a statement whose key (SQL +
// compile geometry) matches an in-flight execution attaches to it and
// writes the same result bytes without running the plan, and — when the
// server has a result cache and the session has not opted out —
// completed outcomes are reused within their TTL. Sessions that are
// streaming a trace always execute: the UDP dot-then-events protocol is
// per-session and cannot be replayed from a shared outcome.
func (sess *session) cmdQuery(w *bufio.Writer, query string) {
	p, err := sess.srv.run.Prepare(query, sess.settings)
	if err != nil {
		fmt.Fprintf(w, "err %v\n", err)
		return
	}
	opts := runner.RunOptions{NoResultCache: !sess.resultcache}
	if sess.streamer != nil {
		// The server generates the dot file and sends it over the UDP
		// stream before query execution begins (§4.2). The session's
		// display filter scopes to the UDP stream only — the history
		// record and the counters always see the full trace.
		sess.streamer.SendDot(query, p.Dot())
		opts.Sinks = []profiler.Sink{profiler.FilterSink(sess.filter, sess.batcher)}
	}
	out, _, err := sess.srv.run.Run(sess.ctx, p, opts)
	// Push the tail of the event batch out before answering, so the
	// monitor sees the complete trace as soon as the client sees "ok".
	if sess.batcher != nil {
		sess.batcher.Flush()
	}
	if err != nil {
		fmt.Fprintf(w, "err %v\n", err)
		return
	}
	fmt.Fprintln(w, "ok")
	// A failed write is not reported from here: it sticks to w, the
	// encoder has already stopped formatting, and handle ends the
	// session when its Flush returns the same error.
	start := time.Now()
	n, _ := WriteResult(w, out.Res)
	sess.srv.encodeUs.Observe(time.Since(start).Microseconds())
	sess.srv.resultBytes.Add(n)
	fmt.Fprintln(w, ".")
}

// runLine renders one run as a k=v protocol line. The quoted,
// space-containing fields (sql, err, tune) come last, so everything
// before sql= splits cleanly on spaces.
func runLine(r tracestore.RunInfo) string {
	return fmt.Sprintf("id=%d start=%s elapsed_us=%d events=%d rows=%d partitions=%d workers=%d auto=%t complete=%t cache_hit=%t sql=%s err=%s tune=%s",
		r.ID, r.Start.UTC().Format(time.RFC3339Nano), r.ElapsedUs, r.Events, r.Rows,
		r.Partitions, r.Workers, r.AutoTuned, r.Complete, r.CacheHit,
		strconv.Quote(r.SQL), strconv.Quote(r.Err), strconv.Quote(r.TuneReason))
}

// cmdHistory serves the query-history protocol:
//
//	HISTORY LIST [n]   — recorded runs, most recent first
//	HISTORY TOP [n]    — slowest completed runs, slowest first
//	HISTORY INFO <id>  — one run's metadata line
//	HISTORY TRACE <id> — one run's trace-file lines
//	HISTORY DOT <id>   — one run's plan dot text
//	HISTORY DIFF <a> <b> — cross-run comparison of two runs of one SQL
func (sess *session) cmdHistory(w *bufio.Writer, rest string) {
	hs := sess.srv.run.History
	if hs == nil {
		fmt.Fprintln(w, "err history is not enabled on this server")
		return
	}
	fields := strings.Fields(rest)
	sub := "LIST"
	if len(fields) > 0 {
		sub = strings.ToUpper(fields[0])
		fields = fields[1:]
	}
	argN := func(def int) int {
		if len(fields) == 0 {
			return def
		}
		n, err := strconv.Atoi(fields[0])
		if err != nil {
			return def
		}
		return n
	}
	argID := func(i int) (uint64, bool) {
		if len(fields) <= i {
			return 0, false
		}
		id, err := strconv.ParseUint(fields[i], 10, 64)
		return id, err == nil
	}
	switch sub {
	case "LIST":
		runs := hs.Runs()
		n := argN(0)
		fmt.Fprintln(w, "ok")
		for i := len(runs) - 1; i >= 0; i-- {
			if n > 0 && len(runs)-1-i >= n {
				break
			}
			fmt.Fprintln(w, runLine(runs[i]))
		}
		fmt.Fprintln(w, ".")
	case "TOP":
		fmt.Fprintln(w, "ok")
		for _, r := range hs.TopN(argN(10)) {
			fmt.Fprintln(w, runLine(r))
		}
		fmt.Fprintln(w, ".")
	case "INFO":
		id, ok := argID(0)
		if !ok {
			fmt.Fprintln(w, "err usage: HISTORY INFO <id>")
			return
		}
		r, found := hs.Run(id)
		if !found {
			fmt.Fprintf(w, "err unknown run %d\n", id)
			return
		}
		fmt.Fprintln(w, "ok")
		fmt.Fprintln(w, runLine(r))
		fmt.Fprintln(w, ".")
	case "TRACE":
		id, ok := argID(0)
		if !ok {
			fmt.Fprintln(w, "err usage: HISTORY TRACE <id>")
			return
		}
		evs, err := hs.Events(id)
		if err != nil {
			fmt.Fprintf(w, "err %v\n", err)
			return
		}
		fmt.Fprintln(w, "ok")
		for _, e := range evs {
			fmt.Fprintln(w, e.Marshal())
		}
		fmt.Fprintln(w, ".")
	case "DOT":
		id, ok := argID(0)
		if !ok {
			fmt.Fprintln(w, "err usage: HISTORY DOT <id>")
			return
		}
		dotText, err := hs.Dot(id)
		if err != nil {
			fmt.Fprintf(w, "err %v\n", err)
			return
		}
		fmt.Fprintln(w, "ok")
		fmt.Fprint(w, dotText)
		if !strings.HasSuffix(dotText, "\n") {
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, ".")
	case "DIFF":
		a, okA := argID(0)
		b, okB := argID(1)
		if !okA || !okB {
			fmt.Fprintln(w, "err usage: HISTORY DIFF <a> <b>")
			return
		}
		d, err := hs.Compare(a, b)
		if err != nil {
			fmt.Fprintf(w, "err %v\n", err)
			return
		}
		fmt.Fprintln(w, "ok")
		fmt.Fprintf(w, "elapsed_delta_us=%d regression=%t a=%d b=%d sql=%s\n",
			d.ElapsedDeltaUs, d.Regression, d.A.ID, d.B.ID, strconv.Quote(d.A.SQL))
		for _, m := range d.Modules {
			fmt.Fprintf(w, "module=%s a_us=%d b_us=%d delta_us=%d\n", m.Module, m.AUs, m.BUs, m.DeltaUs)
		}
		fmt.Fprintln(w, ".")
	default:
		fmt.Fprintf(w, "err unknown HISTORY subcommand %q (have LIST, TOP, INFO, TRACE, DOT, DIFF)\n", sub)
	}
}

// WriteResult renders a result table as tab-separated text with a header
// line and returns the bytes written; it stops at the first write error.
func WriteResult(w *bufio.Writer, res *engine.Result) (int64, error) {
	return res.WriteText(w)
}

// Client is a minimal protocol client for tools and tests.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
}

// DialServer connects and consumes the greeting.
func DialServer(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	c := &Client{conn: conn, r: bufio.NewReader(conn)}
	greeting, err := c.r.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: %w", err)
	}
	if !strings.HasPrefix(greeting, "ok ") {
		conn.Close()
		return nil, fmt.Errorf("server: unexpected greeting %q", greeting)
	}
	return c, nil
}

// Command sends one line and collects the response: status plus payload
// lines up to the "." terminator for multiline responses.
func (c *Client) Command(line string) (string, []string, error) {
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		return "", nil, err
	}
	status, err := c.r.ReadString('\n')
	if err != nil {
		return "", nil, err
	}
	status = strings.TrimSpace(status)
	if strings.HasPrefix(status, "err") {
		return status, nil, fmt.Errorf("server: %s", status)
	}
	cmd := strings.ToUpper(strings.Fields(line)[0])
	if cmd != "EXPLAIN" && cmd != "ALGEBRA" && cmd != "DOT" && cmd != "QUERY" && cmd != "TABLES" && cmd != "STATS" && cmd != "HISTORY" && cmd != "METRICS" && cmd != "PROGRESS" {
		return status, nil, nil
	}
	var payload []string
	for {
		l, err := c.r.ReadString('\n')
		if err != nil {
			return status, payload, err
		}
		l = strings.TrimRight(l, "\n")
		if l == "." {
			return status, payload, nil
		}
		payload = append(payload, l)
	}
}

// Close terminates the connection politely.
func (c *Client) Close() error {
	fmt.Fprintln(c.conn, "quit")
	return c.conn.Close()
}
