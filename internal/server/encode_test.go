package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"stethoscope/internal/runner"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
)

const wideQuery = "select l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice, l_discount, l_tax, l_shipdate from lineitem"

func TestWriteResultNil(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	n, err := WriteResult(w, nil)
	w.Flush()
	if n != 0 || err != nil || buf.Len() != 0 {
		t.Errorf("WriteResult(nil) = %d, %v and wrote %q; want nothing", n, err, buf.String())
	}
}

// TestLineTooLong: a command line over the scanner's cap used to close
// the connection without a word; it now says why first.
func TestLineTooLong(t *testing.T) {
	srv := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(conn)
	if _, err := r.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	go conn.Write(bytes.Repeat([]byte{'a'}, maxLineBytes)) // no newline: the cap is hit exactly
	reply, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to an over-long line: %v", err)
	}
	if reply != "err line too long (max 1 MiB)\n" {
		t.Errorf("reply = %q", reply)
	}
	if _, err := r.ReadString('\n'); err != io.EOF {
		t.Errorf("after the error reply: %v, want the session closed", err)
	}
}

// TestVanishedClientEndsSession: a peer that closes mid-reply makes the
// next block's write fail; the encoder stops there, the handler returns
// instead of waiting for another command, and the byte counters hold
// what the peer actually took — not the full reply.
func TestVanishedClientEndsSession(t *testing.T) {
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.002, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	srv := New(context.Background(), "pipe", runner.New(cat, nil))
	defer srv.Close()
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handle(server)
	}()
	r := bufio.NewReader(client)
	greeting, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintln(client, "QUERY "+wideQuery); err != nil {
		t.Fatal(err)
	}
	// Take "ok", the header and about one block of rows, then vanish.
	// net.Pipe is unbuffered, so what was read is what was written.
	taken := make([]byte, 80<<10)
	if _, err := io.ReadFull(r, taken); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(taken, []byte("ok\nl_orderkey\t")) {
		t.Fatalf("reply starts %q", taken[:40])
	}
	read := int64(len(greeting) + len(taken) + r.Buffered())
	client.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler still running after its peer closed")
	}
	snap := srv.run.Registry.Snapshot()
	li, _ := cat.Table("sys", "lineitem")
	full := int64(li.Rows()) * 40 // a row is well over 40 bytes
	written := snap.Value("stetho_server_bytes_written_total")
	if written != read || written >= full {
		t.Errorf("bytes_written = %d; the peer read %d of a reply over %d", written, read, full)
	}
	if rb := snap.Value("stetho_server_result_bytes_total"); rb <= 0 || rb > written {
		t.Errorf("result_bytes = %d with bytes_written = %d", rb, written)
	}
}

// TestEncodeMetrics: each QUERY reply lands one observation in the
// wire-encode histogram and its text length in the result-bytes
// counter, on METRICS and on the STATS server line.
func TestEncodeMetrics(t *testing.T) {
	srv := startServer(t)
	c := dialServer(t, srv)
	_, payload, err := c.Command("QUERY " + wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(strings.Join(payload, "\n")) + 1)
	snap := srv.run.Registry.Snapshot()
	if got := snap.Value("stetho_server_result_bytes_total"); got != want {
		t.Errorf("stetho_server_result_bytes_total = %d, reply text is %d bytes", got, want)
	}
	if h, _ := snap.Get("stetho_server_encode_us"); h.Count != 1 {
		t.Errorf("stetho_server_encode_us count = %d after one QUERY", h.Count)
	}
	_, metrics, err := c.Command("METRICS")
	if err != nil {
		t.Fatal(err)
	}
	exposition := strings.Join(metrics, "\n")
	for _, line := range []string{"stetho_server_encode_us_count 1", fmt.Sprintf("stetho_server_result_bytes_total %d", want)} {
		if !strings.Contains(exposition, line) {
			t.Errorf("METRICS lacks %q", line)
		}
	}
	_, stats, err := c.Command("STATS")
	if err != nil {
		t.Fatal(err)
	}
	if line := strings.Join(stats, " "); !strings.Contains(line, fmt.Sprintf(" result_bytes=%d encode_count=1 encode_us=", want)) {
		t.Errorf("STATS lacks the encode fields: %s", line)
	}
}
