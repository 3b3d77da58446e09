package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// client speaks the mserver line protocol and timestamps what a user of the
// socket would see: the send, the status line, and the "." terminator.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}
	greeting, err := c.line()
	if err != nil || !bytes.HasPrefix(greeting, []byte("ok ")) {
		conn.Close()
		return nil, fmt.Errorf("greeting %q: %v", greeting, err)
	}
	return c, nil
}

func (c *client) close() {
	io.WriteString(c.conn, "quit\n")
	c.conn.Close()
}

// line reads one line without its newline, whatever its length. The slice
// is valid until the next read.
func (c *client) line() ([]byte, error) {
	b, err := c.r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		long := append([]byte(nil), b...)
		for errors.Is(err, bufio.ErrBufferFull) {
			b, err = c.r.ReadSlice('\n')
			long = append(long, b...)
		}
		b = long
	}
	if err != nil {
		return nil, err
	}
	return b[:len(b)-1], nil
}

// reply is one answered command.
type reply struct {
	ttfb  time.Duration // send -> status line
	total time.Duration // send -> last byte
	bytes int           // body bytes, newlines included
	sum   digest        // of the body
	err   string        // the server's err line, "" on ok
}

// set sends a command answered by a bare status line (SET).
func (c *client) set(cmd string) error {
	if _, err := io.WriteString(c.conn, cmd+"\n"); err != nil {
		return err
	}
	status, err := c.line()
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(status, []byte("ok")) {
		return fmt.Errorf("%s: %s", cmd, status)
	}
	return nil
}

// do sends a command answered by a status line and, on ok, a body ended by a
// "." line (QUERY, STATS, HISTORY ...). each, when non-nil, sees every body
// line. A transport error is returned; a server-side err is in reply.err.
func (c *client) do(cmd string, each func(line []byte)) (reply, error) {
	var rep reply
	t0 := time.Now()
	if _, err := io.WriteString(c.conn, cmd+"\n"); err != nil {
		return rep, err
	}
	status, err := c.line()
	if err != nil {
		return rep, err
	}
	rep.ttfb = time.Since(t0)
	if !bytes.HasPrefix(status, []byte("ok")) {
		rep.err = string(status)
		rep.total = rep.ttfb
		return rep, nil
	}
	h := sha256.New()
	for {
		l, err := c.line()
		if err != nil {
			return rep, err
		}
		if len(l) == 1 && l[0] == '.' {
			break
		}
		if each != nil {
			each(l)
		}
		h.Write(l)
		h.Write([]byte{'\n'})
		rep.bytes += len(l) + 1
	}
	rep.total = time.Since(t0)
	h.Sum(rep.sum[:0])
	return rep, nil
}

// stats fetches the server's STATS counters as a flat map.
func (c *client) stats() (map[string]float64, error) {
	out := map[string]float64{}
	rep, err := c.do("STATS", func(line []byte) {
		for _, f := range strings.Fields(string(line)) {
			if k, v, ok := strings.Cut(f, "="); ok {
				if n, err := strconv.ParseFloat(v, 64); err == nil {
					out[k] = n
				}
			}
		}
	})
	if err == nil && rep.err != "" {
		err = errors.New(rep.err)
	}
	return out, err
}
