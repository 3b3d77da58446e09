package server

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"stethoscope/internal/adaptive"
	"stethoscope/internal/runner"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
	"stethoscope/internal/tracestore"
)

// fuzzServer builds the tiny history-on server the fuzz targets drive
// and records three runs on it: runs 1 and 3 execute the same SQL, run
// 2 a different one. It returns a constructor of fresh sessions.
func fuzzServer(f *testing.F) func() *session {
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.0002, Seed: 5}); err != nil {
		f.Fatal(err)
	}
	store, err := tracestore.Open(tracestore.Options{
		Dir: f.TempDir(), MaxSegmentBytes: 64 << 10, MaxTotalBytes: 1 << 20,
		CompactEvery: time.Second, Logf: f.Logf,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { store.Close() })
	srv := New(context.Background(), "fuzz", runner.New(cat, store))
	f.Cleanup(func() { srv.Close() })
	newSession := func() *session {
		return &session{srv: srv, ctx: srv.ctx,
			settings: runner.Settings{Partitions: adaptive.Auto, Workers: adaptive.Auto}}
	}
	setup := newSession()
	for _, q := range []string{
		"QUERY select l_tax from lineitem where l_partkey = 1",
		"QUERY select count(*) as n from orders",
		"QUERY select l_tax from lineitem where l_partkey = 1",
	} {
		if reply, err := dispatchReply(setup, q); err != nil || !strings.HasPrefix(reply, "ok") {
			f.Fatalf("%s: %q, %v", q, reply, err)
		}
	}
	return newSession
}

// dispatchReply runs one command line on sess and returns its reply.
func dispatchReply(sess *session, line string) (string, error) {
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	sess.dispatch(w, line)
	err := w.Flush()
	return out.String(), err
}

// FuzzServerCommand sends arbitrary command lines through a session of a
// tiny server with history on — the bytes a hostile client controls. No
// line may panic the server, every reply starts with "ok" or "err", and
// every reply of more than one line ends with the "." terminator, so a
// client never waits on a reply that does not end. Exercised at length
// in nightly CI (see .github/workflows/nightly.yml).
func FuzzServerCommand(f *testing.F) {
	newSession := fuzzServer(f)
	// A local sink for TRACE, so traced statements stream somewhere.
	udp, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { udp.Close() })

	for _, seed := range []string{
		"HISTORY DIFF 1 3",
		"HISTORY DIFF 1 2",
		"HISTORY DIFF 7 9",
		"HISTORY DIFF 1",
		"HISTORY TOP x",
		"HISTORY LIST 2",
		"HISTORY INFO 18446744073709551615",
		"HISTORY TRACE 2",
		"HISTORY DOT 3",
		"HISTORY",
		"SET partitions 4",
		"SET workers auto",
		"SET partitions -1",
		"SET morsel 64",
		"FILTER states=done modules=algebra,sql mindur=100 pcs=1,2,3",
		"FILTER states=bogus",
		"FILTER",
		"TRACE " + udp.LocalAddr().String(),
		"TRACE",
		"QUERY select l_tax from lineitem where l_partkey = 2",
		"EXPLAIN select count(*) from orders",
		"ALGEBRA select count(*) from orders",
		"DOT select count(*) from orders",
		"STATS",
		"PROGRESS",
		"TABLES",
		"BOGUS",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		sess := newSession()
		defer sess.closeStream()
		for _, line := range strings.Split(input, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.EqualFold(line, "quit") {
				continue
			}
			if !loopbackOnly(line) {
				continue
			}
			reply, err := dispatchReply(sess, line)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(reply, "ok") && !strings.HasPrefix(reply, "err") {
				t.Fatalf("%q: reply %q starts with neither ok nor err", line, reply)
			}
			if !strings.HasSuffix(reply, "\n") {
				t.Fatalf("%q: reply %q does not end its last line", line, reply)
			}
			if lines := strings.Split(strings.TrimSuffix(reply, "\n"), "\n"); len(lines) > 1 && lines[len(lines)-1] != "." {
				t.Fatalf("%q: %d-line reply ends with %q, not the terminator", line, len(lines), lines[len(lines)-1])
			}
		}
	})
}

// FuzzClientReply feeds arbitrary bytes to the client's reply reader —
// the bytes a broken or hostile server controls. No reply may panic it,
// an "err" status is returned as an error, and the payload is exactly
// the reply's lines, newline stripped, up to the first "." line. The
// seeds are real replies of the fuzz server, an error and a truncated
// reply. Exercised at length in nightly CI (see
// .github/workflows/nightly.yml).
func FuzzClientReply(f *testing.F) {
	sess := fuzzServer(f)()
	var query string
	for _, line := range []string{"QUERY select count(*) as n from orders", "STATS", "HISTORY LIST", "HISTORY INFO 99"} {
		reply, err := dispatchReply(sess, line)
		if err != nil {
			f.Fatal(err)
		}
		if query == "" {
			query = reply
		}
		f.Add([]byte(reply))
	}
	f.Add([]byte(query[:len(query)-3])) // the terminator cut off
	f.Fuzz(func(t *testing.T, reply []byte) {
		status, payload, err := readReply(bufio.NewReader(bytes.NewReader(reply)), true)
		if strings.HasPrefix(status, "err") && err == nil {
			t.Fatalf("status %q returned no error", status)
		}
		lines := strings.SplitAfter(string(reply), "\n")
		for i, l := range payload {
			if l == "." || l+"\n" != lines[1+i] {
				t.Fatalf("payload line %d = %q, reply line %q", i, l, lines[1+i])
			}
		}
		if err == nil && lines[1+len(payload)] != ".\n" {
			t.Fatalf("payload of %d lines ended without the terminator: %q", len(payload), lines[1+len(payload)])
		}
	})
}

// loopbackOnly keeps the fuzzer's TRACE commands on this machine: a
// TRACE line passes only with no address or a loopback IP literal, so
// no mutated input resolves a name or sends a datagram elsewhere.
func loopbackOnly(line string) bool {
	cmd, rest, _ := strings.Cut(line, " ")
	if !strings.EqualFold(cmd, "TRACE") {
		return true
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return true
	}
	host, _, err := net.SplitHostPort(rest)
	if err != nil {
		return false
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}
