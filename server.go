package stethoscope

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"stethoscope/internal/server"
)

// Server is a running mserver front-end: the TCP command protocol
// (SET / TRACE / FILTER / EXPLAIN / ALGEBRA / DOT / QUERY / TABLES) over
// this database.
type Server struct {
	inner *server.Server
}

// Serve starts the TCP front-end on addr ("127.0.0.1:0" picks a free
// port). name is announced to clients. Canceling ctx (or calling Close)
// stops the listener and aborts in-flight query executions.
//
// The server runs on the DB's run service, so it shares the engine,
// optimizer pipeline, compiled-plan cache, shared-work state, and (when
// enabled) query history: TCP sessions and in-process Exec callers
// serve from (and warm) the same plan state, identical concurrent
// statements single-flight against each other across both entry points,
// their executions land in the same durable trace store, and all of
// them count into DB.Stats. With history enabled the protocol
// additionally answers HISTORY LIST/TOP/INFO/TRACE/DOT/DIFF.
func (db *DB) Serve(ctx context.Context, name, addr string) (*Server, error) {
	srv := server.New(ctx, name, db.run)
	if err := srv.Listen(addr); err != nil {
		srv.Close() // release the derived context
		return nil, fmt.Errorf("stethoscope: %w", err)
	}
	return &Server{inner: srv}, nil
}

// Addr returns the bound TCP address.
func (s *Server) Addr() string { return s.inner.Addr() }

// Close stops the server and waits for in-flight connections.
func (s *Server) Close() error { return s.inner.Close() }

// Remote is a client connection to an mserver.
type Remote struct {
	c *server.Client
}

// Dial connects to an mserver and consumes its greeting.
func Dial(addr string) (*Remote, error) {
	c, err := server.DialServer(addr)
	if err != nil {
		return nil, fmt.Errorf("stethoscope: %w", err)
	}
	return &Remote{c: c}, nil
}

// Close terminates the connection politely.
func (r *Remote) Close() error { return r.c.Close() }

// Command sends one raw protocol line and returns the status line plus
// any multiline payload.
func (r *Remote) Command(line string) (status string, payload []string, err error) {
	return r.c.Command(line)
}

// TraceTo points the server's profiler stream at a monitor's UDP
// address (Monitor.Addr). The server sends each query's dot file before
// execution begins, then the event stream while it runs.
func (r *Remote) TraceTo(udpAddr string) error {
	_, _, err := r.c.Command("TRACE " + udpAddr)
	return err
}

// Configure sets the connection's mitosis partition and dataflow worker
// counts. Pass Auto for either to restore the server's default adaptive
// sizing (the protocol's "SET partitions auto" / "SET workers auto").
func (r *Remote) Configure(partitions, workers int) error {
	setting := func(name string, n int) string {
		if n == Auto {
			return fmt.Sprintf("SET %s auto", name)
		}
		return fmt.Sprintf("SET %s %d", name, n)
	}
	for _, cmd := range []string{setting("partitions", partitions), setting("workers", workers)} {
		if _, _, err := r.c.Command(cmd); err != nil {
			return err
		}
	}
	return nil
}

// Query executes SQL on the server and returns the result lines: a
// tab-separated header followed by the data rows.
func (r *Remote) Query(sql string) ([]string, error) {
	_, rows, err := r.c.Command("QUERY " + sql)
	return rows, err
}

// Explain returns the server's optimized MAL listing for a query.
func (r *Remote) Explain(sql string) (string, error) {
	_, lines, err := r.c.Command("EXPLAIN " + sql)
	if err != nil {
		return "", err
	}
	return strings.Join(lines, "\n") + "\n", nil
}

// Tables lists the server's catalog tables.
func (r *Remote) Tables() ([]string, error) {
	_, lines, err := r.c.Command("TABLES")
	return lines, err
}

// Metrics fetches the server's metrics registry in the Prometheus text
// exposition format (the METRICS wire command) — the same payload the
// WithMetricsAddr HTTP endpoint serves.
func (r *Remote) Metrics() (string, error) {
	_, lines, err := r.c.Command("METRICS")
	if err != nil {
		return "", err
	}
	return strings.Join(lines, "\n") + "\n", nil
}

// Progress fetches the live progress of the server's in-flight queries
// (the PROGRESS wire command), one k=v line per run: id, elapsed_us,
// fraction, instr_done/instr_total, sql. An idle server returns no
// lines.
func (r *Remote) Progress() ([]string, error) {
	_, lines, err := r.c.Command("PROGRESS")
	return lines, err
}

// Stats fetches the server's serving counters (the STATS wire command)
// parsed into a flat k=v map: the plan-cache figures plus the
// scheduler counters (engine_runs, engine_instructions, engine_steals,
// engine_parks, engine_queries_inflight), the server-layer counters
// (sessions, commands, bytes_written, result_bytes, encode_count,
// encode_us), the shared-work counters (sharedwork_led,
// sharedwork_attached) and the plan-template figures (template_hits,
// template_misses, template_evictions, template_len, template_cap).
func (r *Remote) Stats() (map[string]int64, error) {
	_, lines, err := r.c.Command("STATS")
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, line := range lines {
		for _, field := range strings.Fields(line) {
			k, v, ok := strings.Cut(field, "=")
			if !ok {
				continue
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				continue
			}
			out[k] = n
		}
	}
	return out, nil
}

// HistoryList returns the server's recorded runs, most recent first,
// one k=v line per run (id, start, elapsed_us, events, ..., sql).
// n <= 0 lists everything. Requires a server with history enabled.
func (r *Remote) HistoryList(n int) ([]string, error) {
	cmd := "HISTORY LIST"
	if n > 0 {
		cmd = fmt.Sprintf("HISTORY LIST %d", n)
	}
	_, lines, err := r.c.Command(cmd)
	return lines, err
}

// HistoryTop returns the server's n slowest completed runs, slowest
// first, in the HistoryList line format.
func (r *Remote) HistoryTop(n int) ([]string, error) {
	_, lines, err := r.c.Command(fmt.Sprintf("HISTORY TOP %d", n))
	return lines, err
}

// HistoryTrace fetches a recorded run's trace-file content. Pair it
// with HistoryDot to reopen the run locally via OpenOffline.
func (r *Remote) HistoryTrace(id uint64) (string, error) {
	_, lines, err := r.c.Command(fmt.Sprintf("HISTORY TRACE %d", id))
	if err != nil {
		return "", err
	}
	return strings.Join(lines, "\n") + "\n", nil
}

// HistoryDot fetches a recorded run's plan dot text.
func (r *Remote) HistoryDot(id uint64) (string, error) {
	_, lines, err := r.c.Command(fmt.Sprintf("HISTORY DOT %d", id))
	if err != nil {
		return "", err
	}
	return strings.Join(lines, "\n") + "\n", nil
}

// HistoryDiff compares two recorded runs of the same SQL on the
// server: a summary line (elapsed_delta_us, regression verdict)
// followed by per-module delta lines.
func (r *Remote) HistoryDiff(a, b uint64) ([]string, error) {
	_, lines, err := r.c.Command(fmt.Sprintf("HISTORY DIFF %d %d", a, b))
	return lines, err
}
